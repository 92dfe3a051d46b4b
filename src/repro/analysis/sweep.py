"""Parameter sweeps for the ablation benches.

Each sweep varies one design choice of the paper (one
``benchmarks/bench_ablation_*.py`` bench each) and reruns the
end-to-end pipeline once per grid point, in grid order.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.cache.setassoc import CacheGeometry
from repro.core.config import IcgmmConfig
from repro.core.pipeline import StagedPipeline


@dataclass(frozen=True)
class SweepPoint:
    """One sweep sample: the varied value and its outcomes.

    ``gmm_miss_percent`` is the best GMM strategy's miss rate (Fig. 6's
    pick); ``caching_miss_percent`` is ``gmm-caching``'s, the strategy
    whose only GMM decision is the admission threshold.
    """

    value: object
    lru_miss_percent: float
    gmm_miss_percent: float
    caching_miss_percent: float

    @property
    def reduction_points(self) -> float:
        """Absolute miss-rate reduction at this point."""
        return self.lru_miss_percent - self.gmm_miss_percent


def _sweep(
    configs_and_values: list[tuple[IcgmmConfig, object]],
    workload: str,
) -> list[SweepPoint]:
    """Run the pipeline at each grid point (shared by the sweeps)."""
    points = []
    for config, value in configs_and_values:
        result = StagedPipeline(config).run_benchmark(workload)
        points.append(
            SweepPoint(
                value=value,
                lru_miss_percent=result.lru.miss_rate_percent,
                gmm_miss_percent=result.best_gmm.miss_rate_percent,
                caching_miss_percent=result.outcomes[
                    "gmm-caching"
                ].miss_rate_percent,
            )
        )
    return points


def sweep_n_components(
    workload: str,
    component_counts: tuple[int, ...] = (4, 16, 64, 256),
    config: IcgmmConfig | None = None,
) -> list[SweepPoint]:
    """Miss rate vs number of Gaussians K.

    The paper fixes K = 256 for the FPGA engine; this sweep shows the
    miss-rate curve saturating well below that on the synthetic
    traces (why the simulator default is smaller).
    """
    base = config if config is not None else IcgmmConfig()
    return _sweep(
        [
            (
                dataclasses.replace(
                    base,
                    gmm=dataclasses.replace(base.gmm, n_components=k),
                ),
                k,
            )
            for k in component_counts
        ],
        workload,
    )


def sweep_threshold_quantile(
    workload: str,
    quantiles: tuple[float, ...] = (0.0, 0.01, 0.02, 0.05, 0.10),
    config: IcgmmConfig | None = None,
) -> list[SweepPoint]:
    """Miss rate vs admission threshold quantile.

    Low quantiles bypass only one-touch traffic; high quantiles start
    refusing pages with real reuse -- the sweep exposes the optimum.
    """
    base = config if config is not None else IcgmmConfig()
    return _sweep(
        [
            (
                dataclasses.replace(
                    base,
                    gmm=dataclasses.replace(
                        base.gmm, threshold_quantile=q
                    ),
                ),
                q,
            )
            for q in quantiles
        ],
        workload,
    )


def sweep_cache_capacity(
    workload: str,
    capacities_bytes: tuple[int, ...] = (
        1 * 1024 * 1024,
        2 * 1024 * 1024,
        4 * 1024 * 1024,
        8 * 1024 * 1024,
    ),
    config: IcgmmConfig | None = None,
) -> list[SweepPoint]:
    """Miss rate vs cache capacity (block size and ways fixed)."""
    base = config if config is not None else IcgmmConfig()
    return _sweep(
        [
            (
                dataclasses.replace(
                    base,
                    geometry=CacheGeometry(
                        capacity_bytes=capacity,
                        block_bytes=base.geometry.block_bytes,
                        associativity=base.geometry.associativity,
                    ),
                ),
                capacity,
            )
            for capacity in capacities_bytes
        ],
        workload,
    )


def sweep_windowing(
    workload: str,
    len_windows: tuple[int, ...] = (8, 32, 128),
    config: IcgmmConfig | None = None,
) -> list[SweepPoint]:
    """Miss rate vs Algorithm 1 window length.

    The paper picks ``len_window = 32`` empirically; the sweep probes
    the sensitivity of that choice.
    """
    base = config if config is not None else IcgmmConfig()
    return _sweep(
        [
            (
                dataclasses.replace(base, len_window=len_window),
                len_window,
            )
            for len_window in len_windows
        ],
        workload,
    )
