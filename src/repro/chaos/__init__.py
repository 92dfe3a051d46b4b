"""Deterministic chaos harness: seeded fault plans + injection.

See ``docs/robustness.md`` for the fault model, the degradation
semantics of each victim layer, and the recovery metrics.
"""

from repro.chaos.injector import FaultInjector, InjectedFaultError
from repro.chaos.plan import (
    FAULT_KINDS,
    KIND_DEVICE_CORRELATED,
    KIND_DEVICE_FAIL,
    KIND_DEVICE_FAILSLOW,
    KIND_LINK_DEGRADE,
    KIND_REFRESH_CORRUPT,
    KIND_REFRESH_FAIL,
    KIND_SHARD_STALL,
    FaultEvent,
    FaultPlan,
)
from repro.chaos.scenarios import (
    SCENARIO_NAMES,
    SERVING_SCENARIOS,
    last_fault_end,
    recovery_chunk,
    run_fabric_scenario,
    run_serving_scenario,
    scenario_chaos,
    tail_latency_us,
    tail_miss_rate,
)

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "InjectedFaultError",
    "KIND_DEVICE_CORRELATED",
    "KIND_DEVICE_FAIL",
    "KIND_DEVICE_FAILSLOW",
    "KIND_LINK_DEGRADE",
    "KIND_REFRESH_CORRUPT",
    "KIND_REFRESH_FAIL",
    "KIND_SHARD_STALL",
    "SCENARIO_NAMES",
    "SERVING_SCENARIOS",
    "last_fault_end",
    "recovery_chunk",
    "run_fabric_scenario",
    "run_serving_scenario",
    "scenario_chaos",
    "tail_latency_us",
    "tail_miss_rate",
]
