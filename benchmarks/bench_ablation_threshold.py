"""Ablation: admission threshold quantile.

Sec. 3.2 admits a missing page only when its score clears a
threshold, but the paper does not report how the threshold was set.
This bench sweeps the training-score quantile used to derive it: low
quantiles bypass only one-touch traffic (safe), aggressive quantiles
start refusing pages with real reuse and miss rate climbs back above
the baseline -- exposing the optimum the default targets.
"""

from repro.analysis import render_table
from repro.analysis.sweep import sweep_threshold_quantile

QUANTILES = (0.0, 0.01, 0.02, 0.05, 0.15)


def test_threshold_sweep(fast_config, report, benchmark):
    """Miss rate across admission-threshold quantiles (sysbench)."""
    base = fast_config()

    def run():
        return sweep_threshold_quantile(
            "sysbench", quantiles=QUANTILES, config=base
        )

    points = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [
            p.value,
            p.lru_miss_percent,
            p.gmm_miss_percent,
            p.reduction_points,
        ]
        for p in points
    ]
    report(
        "ablation_threshold",
        render_table(
            ["quantile", "LRU miss %", "GMM miss %", "reduction"],
            rows,
            float_format="{:.3f}",
        ),
    )

    by_q = {p.value: p for p in points}
    # A moderate threshold must beat the most aggressive one: over-
    # bypassing refuses pages with real reuse.
    assert (
        by_q[0.02].gmm_miss_percent < by_q[0.15].gmm_miss_percent
    )
    # And the default band (0.01-0.05) keeps the GMM ahead of LRU.
    for q in (0.01, 0.02, 0.05):
        assert by_q[q].reduction_points > 0
