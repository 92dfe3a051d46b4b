"""Fig. 2 reproduction: spatial/temporal access distributions.

Fig. 2 of the paper motivates the 2-D GMM by showing, per benchmark,
a spatial access histogram that "can be fitted with different Gaussian
functions" and a temporal distribution with "uneven access frequency
within a specific range of addresses".  This module extracts both from
a trace and quantifies them:

* :func:`workload_distributions` -- the histograms themselves,
* :func:`gmm_spatial_fit` -- how well a mixture fits the spatial
  profile (improving log-likelihood with K, Fig. 2's visual claim),
* :func:`temporal_information_gain` -- how much the temporal dimension
  adds over a spatial-only model (Sec. 2.3's argument for going 2-D).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gmm.em import EMTrainer
from repro.traces.record import MemoryTrace
from repro.traces.stats import (
    SpatialHistogram,
    TemporalHistogram,
    spatial_histogram,
    temporal_histogram,
)


@dataclass(frozen=True)
class WorkloadDistributions:
    """The two Fig. 2 panels for one benchmark."""

    workload: str
    spatial: SpatialHistogram
    temporal: TemporalHistogram

    @property
    def spatial_modality(self) -> int:
        """Number of separated spatial peaks (>= 2 per Fig. 2)."""
        return self.spatial.modality(threshold_fraction=0.01)

    @property
    def temporal_nonuniformity(self) -> float:
        """Time-variation of the access profile (> 0 per Fig. 2)."""
        return self.temporal.column_nonuniformity()


def workload_distributions(
    workload: str,
    trace: MemoryTrace,
    n_spatial_bins: int = 120,
    n_time_bins: int = 40,
) -> WorkloadDistributions:
    """Compute both Fig. 2 panels for a trace."""
    return WorkloadDistributions(
        workload=workload,
        spatial=spatial_histogram(trace, n_spatial_bins),
        temporal=temporal_histogram(
            trace, n_time_bins, n_spatial_bins
        ),
    )


def _standardise(values: np.ndarray) -> np.ndarray:
    std = values.std()
    if std < 1e-12:
        std = 1.0
    return (values - values.mean()) / std


def gmm_spatial_fit(
    trace: MemoryTrace,
    component_counts: tuple[int, ...] = (1, 2, 4, 8),
    max_samples: int = 20_000,
    seed: int = 0,
) -> dict[int, float]:
    """Mean log-likelihood of 1-D spatial GMMs for increasing K.

    Fig. 2's claim -- the spatial profile is a *mixture* -- shows up as
    the likelihood improving markedly from K=1 to larger K.
    """
    rng = np.random.default_rng(seed)
    pages = trace.page_indices().astype(np.float64)
    if pages.shape[0] > max_samples:
        pages = rng.choice(pages, size=max_samples, replace=False)
    # 1-D data embedded in 2-D with an independent dummy axis keeps
    # the same GMM machinery; the dummy axis is standard normal noise
    # and contributes a constant to every model's likelihood.
    points = np.column_stack(
        [_standardise(pages), rng.standard_normal(pages.shape[0])]
    )
    out = {}
    for k in component_counts:
        result = EMTrainer(n_components=k, max_iter=40, tol=1e-3).fit(
            points, np.random.default_rng(seed)
        )
        out[k] = result.log_likelihood
    return out


def temporal_information_gain(
    features: np.ndarray,
    n_components: int = 16,
    max_samples: int = 20_000,
    seed: int = 0,
    n_init: int = 3,
) -> float:
    """Log-likelihood gain of the 2-D model over spatial-only.

    Fits two mixtures on (P, T) feature rows: one on the real data and
    one on data whose T column is shuffled (destroying any
    spatio-temporal association while preserving both marginals).  The
    difference in mean log-likelihood is the information the temporal
    dimension actually carries -- Sec. 2.3's justification for the
    second input ("only considering spatial distribution will degrade
    GMM prediction performance").

    Both fits run ``n_init`` restarts (best likelihood wins) so the
    measured gap reflects the data, not one seeding's luck -- a
    single lucky init on the shuffled baseline can otherwise flip
    the sign of a small gain.  The restarts run one after another,
    so each costs about one more single-restart fit.
    """
    rng = np.random.default_rng(seed)
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != 2:
        raise ValueError("features must have shape (N, 2)")
    if features.shape[0] > max_samples:
        index = rng.choice(
            features.shape[0], size=max_samples, replace=False
        )
        features = features[index]
    points = np.column_stack(
        [_standardise(features[:, 0]), _standardise(features[:, 1])]
    )
    shuffled = points.copy()
    rng.shuffle(shuffled[:, 1])
    trainer = EMTrainer(
        n_components=n_components, max_iter=40, tol=1e-3, n_init=n_init
    )
    real = trainer.fit(points, np.random.default_rng(seed))
    independent = trainer.fit(shuffled, np.random.default_rng(seed))
    return real.log_likelihood - independent.log_likelihood
