"""Ablation: cache capacity.

The paper's case study fixes one geometry (64 MB / 4 KB / 8-way,
Sec. 5.1).  This bench sweeps capacity at the simulation scale and
shows where the GMM's advantage lives: it is largest when the working
set contests the cache, and shrinks toward zero once the cache
swallows the workload (there is nothing left for any policy to win:
the Belady headroom closes).
"""

from repro.analysis import render_table
from repro.analysis.sweep import sweep_cache_capacity

CAPACITIES = (
    1 * 1024 * 1024,
    2 * 1024 * 1024,
    8 * 1024 * 1024,
)


def test_capacity_sweep(fast_config, report, benchmark):
    """Miss rates across cache capacities (memtier)."""
    base = fast_config()

    def run():
        return sweep_cache_capacity(
            "memtier", capacities_bytes=CAPACITIES, config=base
        )

    points = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [
            f"{p.value // (1024 * 1024)} MiB",
            p.lru_miss_percent,
            p.gmm_miss_percent,
            p.reduction_points,
        ]
        for p in points
    ]
    report(
        "ablation_cache_geometry",
        render_table(
            ["capacity", "LRU miss %", "GMM miss %", "reduction"], rows
        ),
    )

    # Larger caches miss less under either policy...
    lru = [p.lru_miss_percent for p in points]
    assert lru == sorted(lru, reverse=True)
    # ...and the GMM advantage shrinks once capacity pressure is gone.
    assert points[-1].reduction_points < points[0].reduction_points + 0.5
    # Under pressure the GMM stays ahead.
    assert points[0].reduction_points > 0
