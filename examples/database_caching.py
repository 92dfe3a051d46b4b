"""Scenario: database page caching -- ICGMM against the policy zoo.

Runs the two database workloads (memtier, sysbench) under every
classical policy in the repository plus the GMM policy and the offline
Belady oracle, showing where the learned policy sits between LRU and
the theoretical optimum.

Run with::

    python examples/database_caching.py
"""

import numpy as np

from repro import IcgmmConfig, StagedPipeline
from repro.analysis import render_table
from repro.cache import (
    BeladyPolicy,
    SetAssociativeCache,
    simulate,
)
from repro.cache.policies import make_policy
from repro.core.config import GmmEngineConfig


def main() -> None:
    config = IcgmmConfig(
        trace_length=150_000,
        gmm=GmmEngineConfig(n_components=24, max_train_samples=15_000),
    )
    pipeline = StagedPipeline(config)

    for workload in ("memtier", "sysbench"):
        print(f"=== {workload} ===")
        prepared = pipeline.prepare(workload)
        rows = []

        # Classical policies.
        for name in ("lru", "fifo", "clock", "lfu", "random"):
            policy = (
                make_policy(name, rng=np.random.default_rng(0))
                if name == "random"
                else make_policy(name)
            )
            cache = SetAssociativeCache(config.geometry)
            stats = simulate(
                cache,
                policy,
                prepared.page_indices,
                prepared.is_write,
                warmup_fraction=config.warmup_fraction,
            )
            rows.append(
                [name.upper(), 100 * stats.miss_rate,
                 pipeline.latency_model.average_access_time_us(stats)]
            )

        # The GMM policy (best Fig. 6 strategy for this workload).
        best = min(
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
        rows.append(
            [
                f"ICGMM ({best.strategy.replace('gmm-', '')})",
                best.miss_rate_percent,
                best.average_time_us,
            ]
        )

        # Belady: the offline bound no online policy can beat.
        cache = SetAssociativeCache(config.geometry)
        oracle_stats = simulate(
            cache,
            BeladyPolicy(prepared.page_indices),
            prepared.page_indices,
            prepared.is_write,
            warmup_fraction=config.warmup_fraction,
        )
        rows.append(
            [
                "Belady (offline bound)",
                100 * oracle_stats.miss_rate,
                pipeline.latency_model.average_access_time_us(
                    oracle_stats
                ),
            ]
        )
        print(
            render_table(
                ["policy", "miss rate (%)", "avg access (us)"], rows
            )
        )
        print()


if __name__ == "__main__":
    main()
