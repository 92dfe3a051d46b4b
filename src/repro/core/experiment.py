"""Suite-level experiment orchestration (Fig. 6 / Table 1 runs)."""

from __future__ import annotations

import numpy as np

from repro.core.config import STRATEGIES, IcgmmConfig
from repro.core.pipeline import StagedPipeline
from repro.core.results import SuiteResult
from repro.traces.workloads import WORKLOAD_NAMES


def run_suite(
    workloads: tuple[str, ...] = WORKLOAD_NAMES,
    config: IcgmmConfig | None = None,
    strategies: tuple[str, ...] = STRATEGIES,
) -> SuiteResult:
    """Run the full evaluation matrix.

    One :class:`BenchmarkResult` per workload, each containing every
    requested strategy.  Each workload gets a child seed derived from
    the config seed, so runs are reproducible yet workloads are
    independent.

    This is the function behind both headline benches:
    ``SuiteResult.fig6_rows()`` regenerates Fig. 6 and
    ``SuiteResult.table1_rows()`` regenerates Table 1.
    """
    pipeline = StagedPipeline(config)
    root = np.random.SeedSequence(pipeline.config.seed)
    children = root.spawn(len(workloads))
    results = {}
    for workload, child in zip(workloads, children):
        rng = np.random.default_rng(child)
        results[workload] = pipeline.run_benchmark(
            workload, strategies=strategies, rng=rng
        )
    return SuiteResult(results=results)
