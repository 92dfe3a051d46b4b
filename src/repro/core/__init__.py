"""ICGMM core: the paper's contribution assembled end to end."""

from repro.core.config import (
    PLACEMENTS,
    STRATEGIES,
    ChaosConfig,
    FabricTopology,
    GmmEngineConfig,
    IcgmmConfig,
    ParallelConfig,
    ServingConfig,
)
from repro.core.engine import FeatureScaler, GmmPolicyEngine
from repro.core.experiment import run_suite
from repro.core.pipeline import PreparedWorkload, StagedPipeline
from repro.core.policy import build_policy, strategy_views
from repro.core.results import (
    GMM_STRATEGIES,
    BenchmarkResult,
    StrategyOutcome,
    SuiteResult,
)

__all__ = [
    "BenchmarkResult",
    "ChaosConfig",
    "FabricTopology",
    "FeatureScaler",
    "GMM_STRATEGIES",
    "GmmEngineConfig",
    "GmmPolicyEngine",
    "IcgmmConfig",
    "PLACEMENTS",
    "ParallelConfig",
    "PreparedWorkload",
    "STRATEGIES",
    "ServingConfig",
    "StagedPipeline",
    "StrategyOutcome",
    "SuiteResult",
    "build_policy",
    "run_suite",
    "strategy_views",
]
