"""ICGMM reproduction: CXL memory expansion with GMM-based caching.

A full Python reproduction of "ICGMM: CXL-enabled Memory Expansion
with Intelligent Caching Using Gaussian Mixture Model" (DAC 2024),
including every substrate the paper depends on: synthetic workload
traces, a from-scratch EM-trained GMM, a set-associative DRAM cache
with a policy zoo, a from-scratch LSTM baseline, FPGA cost/latency
models, a discrete-event dataflow simulator and a CXL memory-expansion
system model.

Quickstart::

    from repro import StagedPipeline

    pipeline = StagedPipeline()
    result = pipeline.run_benchmark("dlrm")
    print(result.lru.miss_rate_percent,
          result.best_gmm.miss_rate_percent)

``docs/architecture.md`` is the system inventory; the paper-figure
benches under ``benchmarks/`` regenerate every table and figure.
"""

from repro.core import (
    GMM_STRATEGIES,
    STRATEGIES,
    BenchmarkResult,
    FabricTopology,
    GmmEngineConfig,
    GmmPolicyEngine,
    IcgmmConfig,
    ServingConfig,
    StagedPipeline,
    StrategyOutcome,
    SuiteResult,
    run_suite,
)
from repro.serving import IcgmmCacheService

__version__ = "1.0.0"

__all__ = [
    "BenchmarkResult",
    "FabricTopology",
    "GMM_STRATEGIES",
    "GmmEngineConfig",
    "GmmPolicyEngine",
    "IcgmmCacheService",
    "IcgmmConfig",
    "STRATEGIES",
    "ServingConfig",
    "StagedPipeline",
    "StrategyOutcome",
    "SuiteResult",
    "run_suite",
    "__version__",
]
