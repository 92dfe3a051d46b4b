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

#: Rows per block of the scoring kernel: one block's ``(rows, K)``
#: weighted-density slab (1 MB at K=64) stays cache-resident across
#: the GEMM, the peak shift, ``exp`` and the row sums.
_SCORE_BLOCK_ROWS = 2048

#: Floor on peak-shifted log-densities before ``exp`` in the scoring
#: kernel, just above the subnormal range (which makes ``exp`` several
#: times slower).  Every row's sum holds ``exp(0) = 1`` from its peak,
#: so a floored lane (at most ``e^-700``) is far below its last bit.
_EXP_FLOOR = -700.0


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
    the Cholesky factors and the quadratic form
    (:func:`~repro.gmm.linalg.quadratic_coefficients`) so that scoring
    is a pure pipelined computation -- mirroring the FPGA engine, which
    loads the weight buffer once and then streams points through
    (Sec. 4.1).  Every density goes through one blocked kernel whose
    result for a point depends only on the point and the mixture.
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
        self._coef, self._const, self._p_max, self._mu_span = (
            linalg.quadratic_coefficients(
                self._log_weights, means, self._log_det, covariances
            )
        )
        # Scoring skips the components of weight exactly 0 (see
        # log_score_samples); None when every component is live.
        live = np.flatnonzero(weights)
        self._live = self._sum_plan = None
        if live.size < k:
            self._live = live
            self._sum_plan = linalg.pairwise_plan(live, k)

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

    def _weighted_block(
        self, points: np.ndarray, live: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """``log pi_k + log N(x_n | mu_k, Sigma_k)`` for one row block.

        Returns ``(weighted, live)``: column ``i`` of ``weighted``
        holds component ``live[i]`` (sorted), each column contiguous
        in memory, or every component when the returned ``live`` is
        None.  The quadratic-form GEMM covers every component and is
        row-major, so each output row depends only on its input row
        (a one-row block is padded to two: numpy hands a single row
        to gemv, whose rounding differs from gemm's).  The (row,
        component) pairs that
        :func:`~repro.gmm.linalg.needs_exact_rescore` flags from the
        row's own span are rescored through the exact solve.  When a
        dead component is flagged, every component is kept: its exact
        value is -inf or NaN, and a NaN voids its row's peak.
        """
        rows = points.shape[0]
        magnitude = np.abs(points)
        # fmax skips NaN, so a NaN row cannot mask another row's span.
        cols = np.nonzero(
            linalg.needs_exact_rescore(
                np.fmax.reduce(magnitude, axis=None),
                self._p_max,
                self._mu_span,
            )
        )[0]
        if live is not None and not self._weights[cols].all():
            live = None
        padded = points if rows > 1 else np.repeat(points, 2, axis=0)
        weighted = linalg.quadratic_features(padded) @ self._coef.T
        if live is None:
            weighted = weighted[:rows]
            weighted += self._const
        else:
            weighted = weighted[:rows].T[live].T
            weighted += self._const[live]
        if cols.size:
            flagged = linalg.needs_exact_rescore(
                magnitude.max(axis=1)[:, None],
                self._p_max[cols],
                self._mu_span[cols],
            )
            hit = np.nonzero(flagged.any(axis=1))[0]
            exact = linalg.exact_log_weighted(
                points[hit],
                self._means[cols],
                self._cholesky[cols],
                self._log_det[cols],
                self._log_weights[cols],
            )
            if live is not None:
                cols = np.searchsorted(live, cols)
            grid = np.ix_(hit, cols)
            weighted[grid] = np.where(
                flagged[hit], exact, weighted[grid]
            )
        return weighted, live

    def log_weighted_densities(self, points: np.ndarray) -> np.ndarray:
        """``log pi_k + log N(x_n | mu_k, Sigma_k)``, shape ``(N, K)``."""
        points = self._validate_points(points)
        out = np.empty((points.shape[0], self.n_components))
        for lo in range(0, points.shape[0], _SCORE_BLOCK_ROWS):
            hi = lo + _SCORE_BLOCK_ROWS
            out[lo:hi] = self._weighted_block(points[lo:hi], None)[0]
        return out

    def log_score_samples(self, points: np.ndarray) -> np.ndarray:
        """Log of the mixture density ``log G(x)`` per point (Eq. 3).

        A blocked logsumexp over :meth:`_weighted_block` whose
        peak-shifted exponents are floored at :data:`_EXP_FLOOR`;
        rows with no finite peak (``-inf`` or NaN under every
        component) score ``-inf``.  A component of weight exactly 0
        (warm refresh folds leave most of them dead) is skipped: its
        log-density is -inf, its floored term ``e^-700`` sits far
        below the last bit of a row sum that holds ``exp(0) = 1``
        from the peak, and :func:`~repro.gmm.linalg.pairwise_lane_sum`
        adds the live terms in the order ``np.sum`` adds all ``K``.
        """
        points = self._validate_points(points)
        out = np.empty(points.shape[0])
        for lo in range(0, points.shape[0], _SCORE_BLOCK_ROWS):
            hi = lo + _SCORE_BLOCK_ROWS
            weighted, live = self._weighted_block(
                points[lo:hi], self._live
            )
            peak = weighted.max(axis=1)
            finite = np.isfinite(peak)
            shift = np.where(finite, peak, 0.0)
            weighted -= shift[:, None]
            np.maximum(weighted, _EXP_FLOOR, out=weighted)
            np.exp(weighted, out=weighted)
            total = (
                weighted.sum(axis=1)
                if live is None
                else linalg.pairwise_lane_sum(weighted.T, self._sum_plan)
            )
            out[lo:hi] = np.where(finite, np.log(total) + shift, -np.inf)
        return out

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
