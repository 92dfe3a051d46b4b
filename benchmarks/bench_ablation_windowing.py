"""Ablation: Algorithm 1 windowing constants.

The paper "empirically chose len_window = 32 and len_access_shot =
10,000 for optimal GMM training performance" (Sec. 3.1).  This bench
sweeps the window length around that choice and reports the effect on
the end-to-end miss rate, checking the paper's pick sits in the flat
optimum rather than on a cliff.
"""

from repro.analysis import render_table
from repro.analysis.sweep import sweep_windowing

WINDOWS = (8, 32, 128)


def test_window_sweep(fast_config, report, benchmark):
    """Miss rate across Algorithm 1 window lengths (memtier)."""
    base = fast_config()

    def run():
        return sweep_windowing(
            "memtier", len_windows=WINDOWS, config=base
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
        "ablation_windowing",
        render_table(
            ["len_window", "LRU miss %", "GMM miss %", "reduction"],
            rows,
        ),
    )

    by_window = {p.value: p for p in points}
    # The LRU baseline is windowing-independent (it never sees T).
    lru_values = {p.lru_miss_percent for p in points}
    assert len(lru_values) == 1
    # The paper's choice performs within 0.5 points of the sweep's
    # best -- it sits on the flat part of the curve.
    best = min(p.gmm_miss_percent for p in points)
    assert by_window[32].gmm_miss_percent <= best + 0.5
