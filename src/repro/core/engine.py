"""The GMM policy engine: training pipeline and batch scoring.

Ties the GMM substrate to the cache policy: standardise the (page
index, transformed timestamp) features, fit the mixture with EM on the
training slice, pick the admission threshold from the training-score
distribution, then score arbitrary request streams (Sec. 3 end to
end).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import GmmEngineConfig
from repro.gmm.em import EMTrainer, FitResult
from repro.gmm.model import GaussianMixture
from repro.gmm.quantized import QuantizedGmm

#: Row budget for one batched :meth:`GmmPolicyEngine.page_scores`
#: scoring call (~16 MB of features at float64); bounds peak memory
#: on traces with millions of distinct pages.
_GRID_BUFFER_ROWS = 1 << 20

#: EM's MLE-change stopping tolerance (Sec. 3.3 trains to
#: convergence) and the covariance ridge of every offline fit.
EM_TOL = 1e-3
EM_REG_COVAR = 1e-6


@dataclass(frozen=True)
class FeatureScaler:
    """Per-column standardisation fitted on training features.

    The raw features span wildly different ranges (page indices in the
    tens of thousands, timestamps in the thousands); EM on raw values
    conditions poorly, so both the trainer and the scorer work in
    standardised space.  This is the software analogue of the paper's
    "transformed physical address" input (Sec. 2.3).
    """

    mean: np.ndarray
    std: np.ndarray

    @staticmethod
    def fit(features: np.ndarray) -> "FeatureScaler":
        """Fit mean/std per column (std floored to avoid division by 0)."""
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError("features must have shape (N, D)")
        mean = features.mean(axis=0)
        std = features.std(axis=0)
        std = np.where(std < 1e-12, 1.0, std)
        return FeatureScaler(mean=mean, std=std)

    def transform(self, features: np.ndarray) -> np.ndarray:
        """Standardise ``features`` into model space."""
        features = np.asarray(features, dtype=np.float64)
        return (features - self.mean) / self.std


class GmmPolicyEngine:
    """Trained scoring engine feeding the cache policy.

    Build with :meth:`train`; afterwards :meth:`score` maps request
    features to the mixture density ``G(x)`` (Eq. 3) and
    ``admission_threshold`` holds the Sec. 3.2 cut-off.
    """

    def __init__(
        self,
        model: GaussianMixture,
        scaler: FeatureScaler,
        admission_threshold: float,
        fit_result: FitResult | None = None,
        quantized: QuantizedGmm | None = None,
    ) -> None:
        self.model = model
        self.scaler = scaler
        self.admission_threshold = admission_threshold
        self.fit_result = fit_result
        self.quantized = quantized

    @classmethod
    def train(
        cls,
        features: np.ndarray,
        config: GmmEngineConfig,
        rng: np.random.Generator,
    ) -> "GmmPolicyEngine":
        """Fit the engine on training features of shape ``(N, 2)``.

        Subsamples to ``config.max_train_samples``, standardises, runs
        EM, and derives the admission threshold as the
        ``threshold_quantile`` of the training scores.
        """
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError("features must have shape (N, D)")
        if features.shape[0] < config.n_components:
            raise ValueError(
                "not enough training features:"
                f" {features.shape[0]} < K={config.n_components}"
            )
        if features.shape[0] > config.max_train_samples:
            index = rng.choice(
                features.shape[0],
                size=config.max_train_samples,
                replace=False,
            )
            index.sort()  # keep temporal order for reproducibility
            sample = features[index]
        else:
            sample = features
        scaler = FeatureScaler.fit(sample)
        scaled = scaler.transform(sample)
        trainer = EMTrainer(
            n_components=config.n_components,
            max_iter=config.max_iter,
            tol=EM_TOL,
            reg_covar=EM_REG_COVAR,
        )
        fit_result = trainer.fit(scaled, rng)
        model = fit_result.model
        quantized = QuantizedGmm(model) if config.use_quantized else None
        if quantized is not None:
            train_scores = quantized.score_samples(scaled)
        else:
            train_scores = model.score_samples(scaled)
        threshold = float(
            np.quantile(train_scores, config.threshold_quantile)
        )
        return cls(
            model=model,
            scaler=scaler,
            admission_threshold=threshold,
            fit_result=fit_result,
            quantized=quantized,
        )

    def score(self, features: np.ndarray) -> np.ndarray:
        """Mixture density per request, shape ``(N,)``.

        The whole stream is scored in one vectorised pass: the score is
        a pure function of (page, timestamp), exactly like the hardware
        pipeline that evaluates each request independently.
        """
        scaled = self.scaler.transform(features)
        if self.quantized is not None:
            return self.quantized.score_samples(scaled)
        return self.model.score_samples(scaled)

    def page_scores(
        self, page_indices: np.ndarray, n_time_samples: int = 32
    ) -> np.ndarray:
        """Time-marginalised density per request page, shape ``(N,)``.

        The 2-D score ``G(P, T)`` depends on *when* it is evaluated;
        two cache blocks filled in different timestamp bands therefore
        carry incommensurable scores, which corrupts lowest-score
        eviction.  For eviction the engine uses the temporal marginal

            S(P) = mean over T of G(P, T)

        -- a time-invariant estimate of the page's long-run access
        frequency (the quantity Sec. 3.2's smart eviction actually
        ranks by).  Admission keeps the full 2-D score, where the
        temporal dimension carries real signal (it is what recognises
        maintenance-burst traffic as it happens).

        The marginal is evaluated on an ``n_time_samples``-point grid
        spanning the training timestamp range, once per distinct
        page.  The page-major ``(unique_pages x n_time_samples)``
        grid is scored in calls of as many whole pages as fit a
        bounded feature buffer (one call in the common case), so a
        page's marginal is the same bits however many pages share the
        call -- the serving memo scores pages a few at a time.
        """
        page_indices = np.asarray(page_indices)
        unique_pages, inverse = np.unique(
            page_indices, return_inverse=True
        )
        n_pages = unique_pages.shape[0]
        if n_pages == 0:
            return np.zeros(0, dtype=np.float64)
        pages_f = unique_pages.astype(np.float64)
        # Timestamp grid in raw feature units, then standardised.
        t_lo = self.scaler.mean[1] - 2.0 * self.scaler.std[1]
        t_hi = self.scaler.mean[1] + 2.0 * self.scaler.std[1]
        t_grid = np.linspace(t_lo, t_hi, n_time_samples)
        per_page = np.empty(n_pages, dtype=np.float64)
        page_block = max(1, _GRID_BUFFER_ROWS // n_time_samples)
        for lo in range(0, n_pages, page_block):
            block_pages = pages_f[lo : lo + page_block]
            features = np.empty((block_pages.shape[0], n_time_samples, 2))
            features[:, :, 0] = block_pages[:, None]
            features[:, :, 1] = t_grid
            per_page[lo : lo + page_block] = (
                self.score(features.reshape(-1, 2))
                .reshape(-1, n_time_samples)
                .sum(axis=1)
            )
        per_page /= n_time_samples
        return per_page[inverse]

    def converged(self) -> bool:
        """Whether EM hit its MLE-change criterion (Sec. 3.3)."""
        return self.fit_result is not None and self.fit_result.converged

    def __repr__(self) -> str:
        return (
            f"GmmPolicyEngine(K={self.model.n_components},"
            f" threshold={self.admission_threshold:.4g},"
            f" quantized={self.quantized is not None})"
        )
