"""Scenario: sizing CXL memory expansion for DLRM inference.

Recommendation inference keeps terabyte-scale embedding tables on
cheap storage; the question a systems architect asks is how much of
the SSD penalty a smarter device cache removes.  This example:

1. generates a DLRM trace (embedding tables with rotating popularity
   plus per-batch dense-activation streaming),
2. shows the Fig. 2-style spatial histogram the GMM learns from,
3. compares LRU against the full ICGMM policy, including the latency
   breakdown that explains where the time goes.

Run with::

    python examples/dlrm_recommendation.py
"""

import numpy as np

from repro import IcgmmConfig, StagedPipeline
from repro.analysis import histogram_figure, render_table
from repro.analysis.distributions import workload_distributions
from repro.core.config import GmmEngineConfig
from repro.hardware.latency import LatencyModel


def main() -> None:
    config = IcgmmConfig(
        trace_length=300_000,
        gmm=GmmEngineConfig(n_components=48, max_train_samples=25_000),
    )
    pipeline = StagedPipeline(config)

    print("Generating the DLRM trace...")
    rng = np.random.default_rng(config.seed)
    trace = pipeline.generate_trace("dlrm", rng)
    dist = workload_distributions("dlrm", trace, n_spatial_bins=72)
    print()
    print(
        histogram_figure(
            dist.spatial.counts,
            height=8,
            title="Spatial access density (Fig. 2a style; "
            f"{dist.spatial_modality} separated peaks)",
        )
    )

    print()
    print("Training the GMM engine and simulating the cache...")
    result = pipeline.run_benchmark("dlrm", trace=trace)
    lru = result.lru
    gmm = result.best_gmm
    print()
    print(
        render_table(
            ["policy", "miss rate (%)", "avg access (us)"],
            [
                ["LRU", lru.miss_rate_percent, lru.average_time_us],
                [
                    f"ICGMM ({gmm.strategy})",
                    gmm.miss_rate_percent,
                    gmm.average_time_us,
                ],
            ],
        )
    )

    model = LatencyModel()
    print()
    print("Latency breakdown (us per access):")
    for policy_name, outcome in (("LRU", lru), ("ICGMM", gmm)):
        parts = model.breakdown_us(outcome.stats)
        formatted = ", ".join(
            f"{name}={value:.2f}" for name, value in parts.items()
        )
        print(f"  {policy_name:6s} {formatted}")
    print()
    print(
        f"ICGMM serves embedding lookups {result.time_reduction_percent:.1f}%"
        " faster on average than the LRU-managed device cache."
    )


if __name__ == "__main__":
    main()
