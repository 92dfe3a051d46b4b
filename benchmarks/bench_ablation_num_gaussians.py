"""Ablation: number of Gaussian components K.

The paper fixes K = 256 for the FPGA engine (Sec. 5.1) without a
sweep.  This bench sweeps K and shows (a) the miss-rate curve saturating at modest
K on these traces -- justifying the simulator default of 64 -- and
(b) the hardware cost that *doesn't* saturate: the weight buffer and
engine latency keep growing with K.
"""

import dataclasses

from repro.analysis import render_table
from repro.analysis.sweep import sweep_n_components
from repro.hardware import FpgaSpec, GmmEngineTiming, estimate_gmm_engine

SWEEP = (4, 16, 64)


def test_k_sweep(fast_config, report, benchmark):
    """Miss rate and hardware cost across the K sweep."""
    # dlrm needs its full phase structure for the sweep to be
    # meaningful; use a longer trace than the other ablations.
    base = fast_config(trace_length=250_000)

    def run():
        return sweep_n_components(
            "dlrm", component_counts=SWEEP, config=base
        )

    points = benchmark.pedantic(run, rounds=1, iterations=1)

    fpga = FpgaSpec()
    rows = []
    for point in points:
        k = point.value
        resources = estimate_gmm_engine(n_components=k)
        timing = GmmEngineTiming(n_components=k)
        rows.append(
            [
                k,
                point.lru_miss_percent,
                point.gmm_miss_percent,
                point.reduction_points,
                resources.bram,
                f"{timing.latency_us(fpga):.2f}",
            ]
        )
    report(
        "ablation_num_gaussians",
        render_table(
            [
                "K",
                "LRU miss %",
                "GMM miss %",
                "reduction",
                "engine BRAM",
                "latency us",
            ],
            rows,
        ),
    )

    # A handful of components is too few to model eight rotating
    # tables; the gain grows monotonically with K on dlrm (the most
    # structurally complex trace -- simpler workloads saturate far
    # earlier), while the hardware latency cost also climbs, which is
    # the trade-off behind the paper's K = 256 and this simulator's
    # K = 64 defaults.
    gains = [p.reduction_points for p in points]
    assert all(b >= a - 0.1 for a, b in zip(gains, gains[1:]))
    assert gains[1] > 0
    assert gains[2] > 1.0
    assert (
        GmmEngineTiming(n_components=SWEEP[-1]).cycles
        > GmmEngineTiming(n_components=SWEEP[0]).cycles
    )
