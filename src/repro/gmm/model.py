"""The Gaussian Mixture Model used as the cache policy's scorer.

Implements Eq. 1-3 of the paper: ``K`` two-dimensional Gaussian
components with full covariances, mixed by normalised weights ``pi_k``.
The mixture density

    G(x) = sum_k pi_k N(x | mu_k, Sigma_k)

is the *score* that predicts the future access frequency of the page
whose (transformed address, transformed timestamp) pair is ``x``.
The class is dimension-generic, but the paper (and this repository's
cache engine) always uses ``n_features == 2``.
"""

from __future__ import annotations

import numpy as np

from repro.gmm import linalg

#: Tolerance for checking that mixture weights sum to one.
_WEIGHT_TOL = 1e-8


class GaussianMixture:
    """Inference-side Gaussian mixture with fixed parameters.

    Parameters
    ----------
    weights:
        Component weights ``pi_k``, shape ``(K,)``; non-negative, summing
        to one (Sec. 2.3).
    means:
        Component means ``mu_k``, shape ``(K, D)``.
    covariances:
        Component covariances ``Sigma_k``, shape ``(K, D, D)``; each must
        be symmetric positive-definite.

    Notes
    -----
    The constructor validates and *copies* its inputs, then precomputes
    the Cholesky factors and log-determinants so that scoring is a pure
    pipelined computation -- mirroring the FPGA engine, which loads the
    weight buffer once and then streams points through (Sec. 4.1).
    """

    def __init__(
        self,
        weights: np.ndarray,
        means: np.ndarray,
        covariances: np.ndarray,
    ) -> None:
        weights = np.array(weights, dtype=np.float64, copy=True)
        means = np.array(means, dtype=np.float64, copy=True)
        covariances = np.array(covariances, dtype=np.float64, copy=True)
        if weights.ndim != 1:
            raise ValueError(f"weights must be 1-D, got shape {weights.shape}")
        k = weights.shape[0]
        if means.ndim != 2 or means.shape[0] != k:
            raise ValueError(
                f"means must have shape (K={k}, D), got {means.shape}"
            )
        d = means.shape[1]
        if covariances.shape != (k, d, d):
            raise ValueError(
                f"covariances must have shape ({k}, {d}, {d}),"
                f" got {covariances.shape}"
            )
        if np.any(weights < 0):
            raise ValueError("weights must be non-negative")
        total = float(np.sum(weights))
        if not np.isclose(total, 1.0, atol=_WEIGHT_TOL):
            raise ValueError(f"weights must sum to 1, got {total}")
        self._weights = weights
        self._means = means
        self._covariances = covariances
        self._cholesky = linalg.cholesky_batch(covariances)
        self._log_det = linalg.log_det_from_cholesky(self._cholesky)
        with np.errstate(divide="ignore"):
            self._log_weights = np.log(weights)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_components(self) -> int:
        """Number of Gaussian components ``K``."""
        return self._weights.shape[0]

    @property
    def n_features(self) -> int:
        """Dimensionality ``D`` of the input points (2 in the paper)."""
        return self._means.shape[1]

    @property
    def weights(self) -> np.ndarray:
        """Copy of the mixture weights ``pi``."""
        return self._weights.copy()

    @property
    def means(self) -> np.ndarray:
        """Copy of the component means ``mu``."""
        return self._means.copy()

    @property
    def covariances(self) -> np.ndarray:
        """Copy of the component covariances ``Sigma``."""
        return self._covariances.copy()

    @property
    def parameter_count(self) -> int:
        """Number of free scalar parameters in the mixture.

        ``K - 1`` weights plus ``K * D`` means plus ``K * D(D+1)/2``
        covariance entries.  Used by the FPGA resource model to size the
        on-board weight buffer.
        """
        k, d = self.n_components, self.n_features
        return (k - 1) + k * d + k * (d * (d + 1) // 2)

    def __repr__(self) -> str:
        return (
            f"GaussianMixture(n_components={self.n_components},"
            f" n_features={self.n_features})"
        )

    # ------------------------------------------------------------------
    # Densities and scores
    # ------------------------------------------------------------------
    def _validate_points(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        if points.ndim == 1:
            points = points[None, :]
        if points.ndim != 2 or points.shape[1] != self.n_features:
            raise ValueError(
                f"points must have shape (N, {self.n_features}),"
                f" got {points.shape}"
            )
        return points

    def log_component_densities(self, points: np.ndarray) -> np.ndarray:
        """``log N(x_n | mu_k, Sigma_k)`` for every point and component.

        Returns shape ``(N, K)``.
        """
        points = self._validate_points(points)
        maha = linalg.mahalanobis_squared_batch(
            points, self._means, self._cholesky
        )
        d = self.n_features
        return -0.5 * (
            d * np.log(2.0 * np.pi) + self._log_det[None, :] + maha
        )

    def log_weighted_densities(self, points: np.ndarray) -> np.ndarray:
        """``log pi_k + log N(x_n | mu_k, Sigma_k)``, shape ``(N, K)``.

        The shared intermediate of scoring and responsibilities: its
        row-wise logsumexp is ``log G(x)`` and its row-normalised
        form the posterior, so both derive from one density pass.
        """
        return self.log_component_densities(points) + self._log_weights

    def log_score_samples(self, points: np.ndarray) -> np.ndarray:
        """Log of the mixture density ``log G(x)`` per point (Eq. 3)."""
        weighted = self.log_weighted_densities(points)
        return linalg.logsumexp(weighted, axis=1)

    def score_samples(self, points: np.ndarray) -> np.ndarray:
        """Mixture density ``G(x)`` per point -- the paper's cache score.

        Higher scores indicate addresses in denser regions of the learnt
        access distribution, i.e. pages predicted to be accessed more
        frequently (Sec. 3.2).
        """
        return np.exp(self.log_score_samples(points))

    def mean_log_likelihood(self, points: np.ndarray) -> float:
        """Average per-sample log-likelihood of ``points``."""
        return float(np.mean(self.log_score_samples(points)))

    def log_responsibilities(self, points: np.ndarray) -> np.ndarray:
        """Posterior ``log p(k | x_n)`` (Bayes step of Sec. 3.3).

        Returns shape ``(N, K)``; each row log-sums to zero.
        """
        weighted = self.log_weighted_densities(points)
        norm = linalg.logsumexp(weighted, axis=1)
        return weighted - norm[:, None]

    def predict(self, points: np.ndarray) -> np.ndarray:
        """Hard component assignment per point, shape ``(N,)``."""
        return np.argmax(self.log_responsibilities(points), axis=1)

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample(
        self, n_samples: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw ``n_samples`` points from the mixture.

        Used by tests (round-tripping EM on known mixtures) and by the
        synthetic trace generators to plant Gaussian spatial clusters.
        """
        if n_samples < 0:
            raise ValueError(f"n_samples must be >= 0, got {n_samples}")
        counts = rng.multinomial(n_samples, self._weights)
        chunks = []
        for k, count in enumerate(counts):
            if count == 0:
                continue
            noise = rng.standard_normal((count, self.n_features))
            chunks.append(self._means[k] + noise @ self._cholesky[k].T)
        if not chunks:
            return np.empty((0, self.n_features), dtype=np.float64)
        samples = np.concatenate(chunks, axis=0)
        rng.shuffle(samples)
        return samples
