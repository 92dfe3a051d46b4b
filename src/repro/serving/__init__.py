"""Online serving subsystem: the streaming ICGMM cache service.

The paper evaluates a frozen, single-tenant pipeline offline; this
package runs the same loop continuously against live multi-tenant
traffic -- chunked scoring, sharded resumable simulation, score-drift
detection, and warm-started EM model refresh with atomic engine swaps
(the software analogue of the FPGA weight-buffer reload).  See
``docs/serving.md`` for the architecture and ``docs/robustness.md``
for how the loop degrades and recovers under injected faults.
"""

from repro.serving.drift import DriftDetector, DriftReport, ks_statistic
from repro.serving.health import FleetHealthMonitor
from repro.serving.metrics import FailureEvent, RollingMetrics
from repro.serving.refresh import (
    ModelRefresher,
    validate_engine,
)
from repro.serving.service import (
    ChunkReport,
    IcgmmCacheService,
    SwapEvent,
)
from repro.serving.sharding import ShardedCachePlanes

__all__ = [
    "ChunkReport",
    "DriftDetector",
    "DriftReport",
    "FailureEvent",
    "FleetHealthMonitor",
    "IcgmmCacheService",
    "ModelRefresher",
    "RollingMetrics",
    "ShardedCachePlanes",
    "SwapEvent",
    "ks_statistic",
    "validate_engine",
]
