"""Fig. 6 reproduction: cache miss rate, LRU vs the GMM strategies.

Paper: "GMM reduces cache misses across all traces", with absolute
reductions from 0.32 (parsec) to 6.14 (stream) percentage points;
eviction-only is the best strategy for parsec and heap, a combined
approach for the others.

This bench regenerates the full figure -- miss rate per (workload,
strategy) -- asserts the reproduction's shape claims, and reports the
timing of one representative end-to-end pipeline run.
"""

import pytest

from repro.analysis import grouped_bar_chart, render_dict_table
from repro.core.config import GmmEngineConfig, IcgmmConfig
from repro.core.pipeline import StagedPipeline
from repro.traces.workloads import WORKLOAD_NAMES

#: Paper values (percent, from Fig. 6) for shape comparison.
PAPER_LRU = {
    "parsec": 1.47,
    "memtier": 2.67,
    "hashmap": 2.10,
    "heap": 2.08,
    "sysbench": 3.87,
    "dlrm": 13.45,
    "stream": 36.78,
}


def test_fig6_reproduction(suite_result, report, benchmark):
    """Regenerate Fig. 6 and check every shape claim."""
    rows = suite_result.fig6_rows()
    table = benchmark.pedantic(
        render_dict_table,
        args=(rows,),
        kwargs={
            "columns": [
                "workload",
                "lru",
                "gmm-caching",
                "gmm-eviction",
                "gmm-caching-eviction",
                "best_gmm",
                "reduction_points",
            ]
        },
        rounds=1,
        iterations=1,
    )
    chart = grouped_bar_chart(
        list(suite_result.results),
        {
            strategy: [
                suite_result[w].outcomes[strategy].miss_rate_percent
                for w in suite_result.results
            ]
            for strategy in (
                "lru",
                "gmm-caching",
                "gmm-eviction",
                "gmm-caching-eviction",
            )
        },
    )
    report("fig6_miss_rate", table + "\n\n" + chart)

    # Shape claim 1: the best GMM strategy beats LRU on every trace.
    for workload in WORKLOAD_NAMES:
        assert suite_result[workload].miss_reduction_points > 0, (
            f"GMM failed to beat LRU on {workload}"
        )

    # Shape claim 2: reductions land in the paper's band (sub-point on
    # the cache-friendly traces, several points on dlrm/stream).
    reductions = {
        w: suite_result[w].miss_reduction_points for w in WORKLOAD_NAMES
    }
    assert max(reductions, key=reductions.get) == "stream"
    assert reductions["stream"] > 4.0
    assert reductions["dlrm"] > 1.5
    for workload in ("parsec", "memtier", "hashmap", "heap", "sysbench"):
        assert 0.0 < reductions[workload] < 2.5

    # Shape claim 3: miss-rate ordering across workloads matches the
    # paper (stream worst, dlrm second, the rest low single digits).
    lru = {
        w: suite_result[w].lru.miss_rate_percent for w in WORKLOAD_NAMES
    }
    assert lru["stream"] > lru["dlrm"] > max(
        lru[w]
        for w in ("parsec", "memtier", "hashmap", "heap", "sysbench")
    )

    # Shape claim 4: LRU baselines sit near the paper's absolute
    # values (within a factor of ~1.6 -- different traces, same bands).
    for workload, paper_value in PAPER_LRU.items():
        assert lru[workload] == pytest.approx(paper_value, rel=0.6), (
            f"{workload}: LRU {lru[workload]:.2f}% vs paper"
            f" {paper_value:.2f}%"
        )

    # Shape claim 5: eviction-only wins on parsec (as in the paper).
    assert suite_result["parsec"].best_gmm.strategy == "gmm-eviction"


def test_fig6_pipeline_timing(benchmark):
    """Benchmark one reduced end-to-end pipeline run (memtier)."""
    config = IcgmmConfig(
        trace_length=60_000,
        gmm=GmmEngineConfig(
            n_components=16, max_train_samples=10_000
        ),
    )

    def run():
        return StagedPipeline(config).run_benchmark(
            "memtier", strategies=("lru", "gmm-caching-eviction")
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.lru.stats.accesses > 0
