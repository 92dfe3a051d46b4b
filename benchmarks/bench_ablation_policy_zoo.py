"""Ablation: the GMM against the classical policy zoo and Belady.

The paper compares only against LRU (and the LSTM engine).  This
bench places the GMM policy among FIFO, CLOCK, random, LFU and the
offline Belady bound, answering two review questions the paper leaves
open: how much of the win is "merely not being recency-based" (the
random/FIFO row) and how close the learned policy gets to the optimum.
"""

import numpy as np
import pytest

from repro.analysis import render_table
from repro.cache import BeladyPolicy, SetAssociativeCache, simulate_fast
from repro.cache.policies import make_policy
from repro.core.pipeline import StagedPipeline


@pytest.fixture(scope="module")
def heap_setup(fast_config):
    config = fast_config()
    pipeline = StagedPipeline(config)
    return config, pipeline, pipeline.prepare("heap")


def test_policy_zoo(heap_setup, report, benchmark):
    """Miss rate of every policy on the heap workload."""
    config, pipeline, prepared = heap_setup

    def run_classical():
        out = {}
        for name in (
            "lru", "fifo", "clock", "lfu", "random", "slru", "2q",
        ):
            policy = (
                make_policy(name, rng=np.random.default_rng(0))
                if name == "random"
                else make_policy(name)
            )
            cache = SetAssociativeCache(config.geometry)
            out[name] = simulate_fast(
                cache,
                policy,
                prepared.page_indices,
                prepared.is_write,
                warmup_fraction=config.warmup_fraction,
            )
        return out

    classical = benchmark.pedantic(run_classical, rounds=1, iterations=1)
    gmm = min(
        (
            pipeline.run_strategy(prepared, s)
            for s in (
                "gmm-caching",
                "gmm-eviction",
                "gmm-caching-eviction",
            )
        ),
        key=lambda o: o.stats.miss_rate,
    )
    oracle = simulate_fast(
        SetAssociativeCache(config.geometry),
        BeladyPolicy(prepared.page_indices),
        prepared.page_indices,
        prepared.is_write,
        warmup_fraction=config.warmup_fraction,
    )

    rows = [
        [name, 100 * stats.miss_rate]
        for name, stats in classical.items()
    ]
    rows.append([f"icgmm ({gmm.strategy})", gmm.miss_rate_percent])
    rows.append(["belady", 100 * oracle.miss_rate])
    report(
        "ablation_policy_zoo",
        render_table(["policy", "miss rate %"], rows),
    )

    lru = classical["lru"].miss_rate
    # The GMM beats every online classical policy, including the
    # scan-resistant ones (SLRU, 2Q)...
    for name, stats in classical.items():
        assert gmm.stats.miss_rate <= stats.miss_rate + 1e-9, name
    # ...and respects the offline bound.
    assert gmm.stats.miss_rate >= oracle.miss_rate - 1e-9
    # It captures a substantial share of the Belady headroom over LRU.
    headroom = lru - oracle.miss_rate
    captured = lru - gmm.stats.miss_rate
    assert captured > 0.4 * headroom
