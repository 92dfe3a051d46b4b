"""Expectation-Maximization training for the Gaussian mixture.

Sec. 3.3 of the paper: unsupervised EM with (1) an expectation step
computing, via Bayes' theorem, the probability of each trace belonging
to each Gaussian, (2) a maximization step updating ``pi``, ``mu`` and
``Sigma``, and (3) a convergence test on the change of the maximum
likelihood estimate between iterations.

:meth:`EMTrainer.fit` derives one child seed per restart up front and
runs the ``n_init`` restarts one after another, each seeded through
the vectorized :func:`repro.gmm.kmeans.kmeans_fast` and iterated by
one fused blocked E+M pass; the quadratic features and moments they
share are built once per fit.  The pass's log-density is a single
quadratic-form GEMM (``weighted = F @ coef.T + const``, coefficients
from :func:`repro.gmm.linalg.quadratic_coefficients`, shared with
scoring), with a per-component cancellation guard that falls back to
the exact triangular solve when the expansion would lose precision.
When most of a block's lanes underflow, the pass's softmax runs
``np.exp`` only on the lanes whose result can be nonzero; it hands
back its normalisers, so the M-step's suspect-covariance guard gets
every flagged component's exact covariance from one extra sweep.
Both stay bit-identical to the plain softmax and to a full E-sweep
per suspect.  A ``warm_start`` skips seeding entirely and iterates
from a caller-supplied mixture, which is how the serving loop's
:class:`~repro.serving.refresh.ModelRefresher` folds drifted traffic
in without paying initialisation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.gmm import linalg
from repro.gmm.kmeans import kmeans_fast
from repro.gmm.model import GaussianMixture

#: Rows per block of the fused E+M pass.  Small enough that one
#: block's ``(rows, K)`` weighted-density slab stays cache-hot
#: across the softmax passes, large enough to amortise call overhead.
_EM_BLOCK_ROWS = 2048

#: Peak-shifted exponents below this make ``np.exp`` return exactly
#: 0.0 (its smallest subnormal result sits at -745.13), so the softmax
#: may write those zeros itself: such a lane costs ``np.exp`` ~12 ns
#: against ~0.7 ns for a normal-range one on a 2-CPU Xeon
#: (``tests/gmm/test_em_softmax.py`` checks the exact zero).
_EXP_ZERO_BELOW = -750.0


def _softmax(
    weighted: np.ndarray, plan: tuple | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Masked softmax over the columns of a ``(rows, L)`` slab.

    ``plan`` is None when the slab holds all ``K`` components (the
    row-major GEMM output), or a
    :func:`~repro.gmm.linalg.pairwise_plan` when it holds only the
    live ones (weight not 0), in component order, each column
    contiguous.  A dead component's term is exactly 0.0 (its
    log-weight is -inf), so leaving it out of the plan's sum changes
    no bit.

    Consumes ``weighted``, which must be contiguous in memory: it is
    overwritten with the responsibilities.  Returns
    ``(responsibilities, log_norm, safe_peak, totals)`` -- the slab
    itself, the per-row log-normalisers, and the per-row peak shift
    and row sums each responsibility is ``exp(w - safe_peak) /
    totals`` against.  Rows that are ``-inf`` under every component
    yield ``-inf`` normalisers (and NaN responsibilities).

    Every value is bit-identical to the plain ``np.exp(w -
    safe_peak)`` softmax over all ``K`` components.  When most
    peak-shifted exponents lie below :data:`_EXP_ZERO_BELOW` (a warm
    refresh fold, whose collapsed components sit hundreds of nats
    below each row's peak), ``np.exp`` runs only on the other lanes --
    the fast normal-range ones and the rare subnormal band just below
    -700 -- gathered into one contiguous array, and the rest are
    written as 0.0.  Otherwise gathering would cost more than it
    saves, and ``np.exp`` runs over the whole slab.
    """
    peak = weighted.max(axis=1)
    finite = np.isfinite(peak)
    safe_peak = np.where(finite, peak, 0.0)
    np.subtract(weighted, safe_peak[:, None], out=weighted)
    flat = weighted.ravel(order="K")
    far = flat < _EXP_ZERO_BELOW
    if 2 * np.count_nonzero(far) > flat.size:
        # NaN lanes compare False, so they are gathered (exp keeps NaN).
        lanes = np.flatnonzero(~far)
        shifted = np.exp(flat[lanes])
        flat.fill(0.0)
        flat[lanes] = shifted
    else:
        np.exp(flat, out=flat)
    with np.errstate(divide="ignore", invalid="ignore"):
        totals = (
            weighted.sum(axis=1)
            if plan is None
            else linalg.pairwise_lane_sum(weighted.T, plan)
        )
        np.divide(weighted, totals[:, None], out=weighted)
        log_norm = np.log(totals) + safe_peak
    log_norm = np.where(finite, log_norm, -np.inf)
    return weighted, log_norm, safe_peak, totals


@dataclass(frozen=True)
class FitResult:
    """Outcome of one EM fit.

    Attributes
    ----------
    model:
        The trained :class:`GaussianMixture`.
    converged:
        Whether the MLE-change test fired before ``max_iter``.
    n_iter:
        EM iterations executed.
    log_likelihood:
        Final mean per-sample log-likelihood.
    history:
        Mean log-likelihood after each iteration (monotonically
        non-decreasing -- a property the test suite asserts).
    """

    model: GaussianMixture
    converged: bool
    n_iter: int
    log_likelihood: float
    history: tuple[float, ...] = field(repr=False, default=())


class _QuadScorer:
    """Quadratic-form log-density machinery for one fit.

    The per-component log-density is an affine function of the
    quadratic feature expansion of each point (see
    :func:`repro.gmm.linalg.quadratic_coefficients`).  ``F`` depends
    only on the points, so a fit builds it once and every E-step
    becomes a single ``(N, T) @ (T, K)`` GEMM -- replacing the
    per-component triangular-solve pass, which allocated
    ``(N, K, D)`` temporaries.  The cancellation guard decides per
    fit, from ``span`` (the largest ``|x|`` over all the fit's
    points), and the E-step rescores suspect components through the
    exact solve.
    """

    def __init__(self, points: np.ndarray) -> None:
        self.features = linalg.quadratic_features(points)
        self.span = float(np.abs(points).max()) if points.shape[0] else 0.0
        self._stat_matrix: np.ndarray | None = None

    def stat_matrix(
        self, points: np.ndarray, moment_matrix: np.ndarray
    ) -> np.ndarray:
        """Per-sample sufficient-statistic columns ``[x, mm, 1]``.

        The M-step's three accumulations (component mass, first
        moments, shifted second moments) become *one* GEMM against
        this matrix.  Both inputs are loop-invariant for one fit, so
        the matrix is built once and cached for every restart and EM
        iteration.
        """
        if self._stat_matrix is None:
            n, d = points.shape
            stats = np.empty((n, d + d * d + 1), dtype=np.float64)
            stats[:, :d] = points
            stats[:, d : d + d * d] = moment_matrix
            stats[:, -1] = 1.0
            self._stat_matrix = stats
        return self._stat_matrix


class EMTrainer:
    """Expectation-Maximization trainer for :class:`GaussianMixture`.

    Parameters
    ----------
    n_components:
        Number of Gaussians ``K`` (the paper's prototype uses 256; the
        simulator default in :mod:`repro.core.config` is smaller because
        miss-rate results saturate well below that on synthetic traces).
    max_iter:
        Upper bound on EM iterations.
    tol:
        Convergence threshold on the change in mean log-likelihood
        between iterations (the "change in MLE" test of Sec. 3.3).
    reg_covar:
        Diagonal ridge added to every covariance at each M-step, keeping
        components positive-definite when they collapse onto few points.
    n_init:
        Number of independent restarts, run one after another, each
        seeded by k-means from its own child seed; the fit with the
        best final log-likelihood wins.
    """

    def __init__(
        self,
        n_components: int,
        max_iter: int = 100,
        tol: float = 1e-4,
        reg_covar: float = 1e-6,
        n_init: int = 1,
    ) -> None:
        if n_components < 1:
            raise ValueError(
                f"n_components must be >= 1, got {n_components}"
            )
        if max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {max_iter}")
        if tol <= 0:
            raise ValueError(f"tol must be > 0, got {tol}")
        if n_init < 1:
            raise ValueError(f"n_init must be >= 1, got {n_init}")
        self.n_components = n_components
        self.max_iter = max_iter
        self.tol = tol
        self.reg_covar = reg_covar
        self.n_init = n_init

    # ------------------------------------------------------------------
    # Initialisation
    # ------------------------------------------------------------------
    @staticmethod
    def _moment_features(
        points: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """(global mean, per-sample shifted second moments).

        Both depend only on ``points``, so a fit computes them once
        and reuses them across every M-step (the flattened moment
        matrix is the larger of the two: ``(N, D*D)``).
        """
        n, d = points.shape
        global_mean = points.mean(axis=0)
        shifted = points - global_mean  # (N, D)
        moment_matrix = (
            shifted[:, :, None] * shifted[:, None, :]
        ).reshape(n, d * d)
        return global_mean, moment_matrix

    def _seed(
        self,
        points: np.ndarray,
        quad: _QuadScorer,
        moments: tuple[np.ndarray, np.ndarray],
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One restart's initial parameters: the M-step of the one-hot
        ``(N, K)`` responsibilities of a k-means labelling."""
        n, d = points.shape
        labels = kmeans_fast(points, self.n_components, rng).labels
        responsibilities = np.zeros((n, self.n_components), dtype=np.float64)
        responsibilities[np.arange(n), labels] = 1.0
        stat_sums = responsibilities.T @ quad.stat_matrix(points, moments[1])

        def exact_covs(suspects, suspect_means, suspect_nk):
            covs = np.empty((suspects.size, d, d), dtype=np.float64)
            for s, j in enumerate(suspects):
                centered = points - suspect_means[s]
                weighted = responsibilities[:, j : j + 1] * centered
                covs[s] = (weighted.T @ centered) / suspect_nk[s]
            return covs

        return self._stats_to_params(
            stat_sums[:, -1], stat_sums[:, :d], stat_sums[:, d : d + d * d],
            n, moments, exact_covs,
        )

    # ------------------------------------------------------------------
    # Fused blocked E+M pass
    # ------------------------------------------------------------------
    def _stats_to_params(
        self,
        nk: np.ndarray,
        sum_points: np.ndarray,
        sum_moments: np.ndarray,
        n: int,
        moments: tuple[np.ndarray, np.ndarray],
        exact_covs,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """M-step closed form from accumulated sufficient statistics.

        Given per-component sums of responsibilities ``r_{nk}``,
        computes ``pi_k = N_k / N``, ``mu_k = sum_n r_{nk} x_n / N_k``
        and ``Sigma_k = sum_n r_{nk} (x_n - mu_k)(x_n - mu_k)^T / N_k``
        with a ``reg_covar`` ridge on each diagonal.  Second moments
        are taken around the *global* mean, so the ``E[yy^T] -
        E[y]E[y]^T`` cancellation is scaled by the data spread rather
        than the raw feature magnitude.  Two guards:

        * a component that lost all mass degrades to the regularized
          zero covariance (its mean is 0, not a conditional mean, so
          the identity would give a spurious ``-global_mean`` outer
          product);
        * a component whose smallest variance falls inside the
          identity's cancellation noise band (a component far from
          the global mean of raw-scale data, or one collapsed onto
          duplicate coordinates, as serving refresh folds do on the
          page axis) is recomputed in the exact centered form:
          ``exact_covs(suspects, means_s, nk_safe_s)`` supplies those
          covariances, shaped ``(S, D, D)``.
        """
        d = moments[0].shape[0]
        k = nk.shape[0]
        nk_safe = np.maximum(nk, 10.0 * np.finfo(np.float64).tiny)
        weights = nk / n
        weights = weights / weights.sum()
        means = sum_points / nk_safe[:, None]
        second_moment = sum_moments.reshape(k, d, d) / nk_safe[
            :, None, None
        ]
        global_mean = moments[0]
        delta = means - global_mean
        covariances = (
            second_moment - delta[:, :, None] * delta[:, None, :]
        )
        dead = nk <= 10.0 * np.finfo(np.float64).tiny
        if np.any(dead):
            covariances[dead] = 0.0
        eps = np.finfo(np.float64).eps
        term_scale = np.abs(second_moment).reshape(k, -1).max(axis=1)
        min_variance = covariances[:, np.arange(d), np.arange(d)].min(
            axis=1
        )
        suspect = np.flatnonzero(
            (min_variance <= 64.0 * eps * term_scale) & ~dead
        )
        if suspect.size:
            covariances[suspect] = exact_covs(
                suspect, means[suspect], nk_safe[suspect]
            )
        covariances = linalg.regularize_covariances(
            covariances, self.reg_covar
        )
        return weights, means, covariances

    def _block_weighted(
        self,
        quad: _QuadScorer,
        points: np.ndarray,
        lo: int,
        hi: int,
        coef: np.ndarray,
        const: np.ndarray,
        suspect_cols: np.ndarray,
        means: np.ndarray,
        factors: np.ndarray,
        log_det: np.ndarray,
        log_weights: np.ndarray,
        lanes: np.ndarray | None,
    ) -> np.ndarray:
        """One block's weighted log-densities ``(rows, K)``.

        One quadratic-form GEMM over every component, dead ones too
        (BLAS may pick different kernels for different output widths,
        so a narrower GEMM would change bits), with suspect columns
        rescored through the exact triangular solve.  With ``lanes``
        (sorted component indices) the result holds only those
        columns, ``(rows, len(lanes))``, each contiguous in memory.
        """
        weighted = quad.features[lo:hi] @ coef.T
        if lanes is None:
            weighted += const
        else:
            weighted = weighted.T[lanes].T
            weighted += const[lanes]
        if suspect_cols.size:
            exact = linalg.exact_log_weighted(
                points[lo:hi],
                means[suspect_cols],
                factors[suspect_cols],
                log_det[suspect_cols],
                log_weights[suspect_cols],
            )
            if lanes is None:
                weighted[:, suspect_cols] = exact
            else:
                kept = np.isin(suspect_cols, lanes)
                position = np.searchsorted(lanes, suspect_cols[kept])
                weighted[:, position] = exact[:, kept]
        return weighted

    def _em_pass(
        self,
        points: np.ndarray,
        quad: _QuadScorer,
        moments: tuple[np.ndarray, np.ndarray],
        weights: np.ndarray,
        means: np.ndarray,
        covariances: np.ndarray,
    ):
        """One fused E+M sweep.

        Blocks of rows go through: quadratic-GEMM weighted densities,
        softmax (responsibilities never materialise beyond the
        block), and accumulation of the M-step sufficient statistics
        -- so each block's slab stays cache-hot across all passes.
        The softmax runs only on live components (weight not 0) when
        some are dead: a dead one's responsibility is exactly 0.0,
        which its row of the statistics GEMM gets as a stored zero.
        Each block keeps its softmax normalisers ``(safe_peak,
        totals)``; when the M-step's covariance guard flags suspect
        components, one extra sweep recomputes the block GEMMs and
        exponentiates only the suspects' columns against them.
        Returns the mean log-likelihood and the updated parameters.
        """
        n, d = points.shape
        k = self.n_components
        factors = linalg.cholesky_batch(covariances)
        log_det = linalg.log_det_from_cholesky(factors)
        with np.errstate(divide="ignore"):
            log_weights = np.log(weights)
        coef, const, p_max, mu_span = linalg.quadratic_coefficients(
            log_weights, means, log_det, covariances
        )
        suspect_cols = np.nonzero(
            linalg.needs_exact_rescore(quad.span, p_max, mu_span)
        )[0]
        live = np.flatnonzero(weights)
        if live.size == k or not weights[suspect_cols].all():
            # Every lane: none is dead, or a dead one is rescored
            # (its exact value may be NaN, which voids its rows).
            live = plan = None
        else:
            plan = linalg.pairwise_plan(live, k)
            dead = np.setdiff1d(np.arange(k), live)
            # Per block height: (K, rows) responsibilities whose dead
            # rows stay 0.0 from block to block.
            zero_filled = {}
        stat_matrix = quad.stat_matrix(points, moments[1])
        stat_sums = np.zeros((k, stat_matrix.shape[1]), dtype=np.float64)
        ll_sum = 0.0
        blocks = [
            (lo, min(lo + _EM_BLOCK_ROWS, n))
            for lo in range(0, n, _EM_BLOCK_ROWS)
        ]
        normalisers = []
        for lo, hi in blocks:
            weighted = self._block_weighted(
                quad, points, lo, hi, coef, const, suspect_cols,
                means, factors, log_det, log_weights, live,
            )
            resp, norm, safe_peak, totals = _softmax(weighted, plan)
            normalisers.append((safe_peak, totals))
            ll_sum += norm.sum()
            if live is None:
                stat_sums += resp.T @ stat_matrix[lo:hi]
                continue
            block = zero_filled.get(hi - lo)
            if block is None:
                block = zero_filled[hi - lo] = np.zeros((k, hi - lo))
            block[live] = resp.T
            # A dead responsibility is 0.0 / totals: NaN where the row
            # sum is 0 or NaN.
            bad = np.flatnonzero(~(totals > 0.0))
            grid = np.ix_(dead, bad)
            with np.errstate(invalid="ignore"):
                block[grid] = 0.0 / totals[bad]
            stat_sums += block @ stat_matrix[lo:hi]
            block[grid] = 0.0

        def exact_covs(suspects, suspect_means, suspect_nk):
            """Exact centered covariances of the suspect components
            from one sweep: per block, the GEMM, then only the
            suspects' columns exponentiated against the normalisers
            the block's softmax cached."""
            covs = np.zeros((suspects.size, d, d), dtype=np.float64)
            for (lo, hi), (safe_peak, totals) in zip(blocks, normalisers):
                weighted = self._block_weighted(
                    quad, points, lo, hi, coef, const, suspect_cols,
                    means, factors, log_det, log_weights, suspects,
                )
                shifted = np.exp(weighted - safe_peak[:, None])
                with np.errstate(divide="ignore", invalid="ignore"):
                    resp = shifted / totals[:, None]
                for s, column in enumerate(resp.T):
                    centered = points[lo:hi] - suspect_means[s]
                    covs[s] += (column[:, None] * centered).T @ centered
            return covs / suspect_nk[:, None, None]

        new_params = self._stats_to_params(
            stat_sums[:, -1], stat_sums[:, :d], stat_sums[:, d : d + d * d],
            n, moments, exact_covs,
        )
        return ll_sum / n, new_params

    def _iterate(
        self,
        points: np.ndarray,
        quad: _QuadScorer,
        moments: tuple[np.ndarray, np.ndarray],
        params: tuple[np.ndarray, np.ndarray, np.ndarray],
    ) -> FitResult:
        """EM from ``(weights, means, covariances)`` until the mean
        log-likelihood changes by less than ``tol``, or ``max_iter``
        passes."""
        history: list[float] = []
        previous = -np.inf
        converged = False
        for n_iter in range(1, self.max_iter + 1):
            ll, params = self._em_pass(points, quad, moments, *params)
            history.append(float(ll))
            if abs(ll - previous) < self.tol:
                converged = True
                break
            previous = ll
        weights, means, covariances = params
        model = GaussianMixture(
            weights,
            means,
            linalg.ensure_positive_definite(covariances, self.reg_covar),
        )
        return FitResult(
            model=model,
            converged=converged,
            n_iter=n_iter,
            log_likelihood=model.mean_log_likelihood(points),
            history=tuple(history),
        )

    # ------------------------------------------------------------------
    # Fit
    # ------------------------------------------------------------------
    def _validate_points(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2:
            raise ValueError(
                f"points must have shape (N, D), got {points.shape}"
            )
        if points.shape[0] < self.n_components:
            raise ValueError(
                f"need at least n_components={self.n_components} points,"
                f" got {points.shape[0]}"
            )
        return points

    def fit(
        self,
        points: np.ndarray,
        rng: np.random.Generator | None = None,
        warm_start=None,
    ) -> FitResult:
        """Fit the mixture to ``points`` of shape ``(N, D)``.

        Runs the ``n_init`` restarts one after another and returns
        the result with the highest final log-likelihood (the first
        of equals).

        Parameters
        ----------
        rng:
            Root randomness; each restart derives an independent
            child seed from it up front and seeds k-means from its
            own fresh generator.  Required unless ``warm_start`` is
            given.
        warm_start:
            A :class:`GaussianMixture` (or ``(weights, means,
            covariances)`` tuple) to start EM from; skips seeding and
            restarts entirely.  This is the
            :class:`~repro.serving.refresh.ModelRefresher` refresh
            path -- the deployed mixture is already a good starting
            point for the drifted traffic.
        """
        points = self._validate_points(points)
        if warm_start is None and rng is None:
            raise ValueError("fit needs an rng unless warm_start is given")
        moments = self._moment_features(points)
        quad = _QuadScorer(points)
        if warm_start is not None:
            if isinstance(warm_start, GaussianMixture):
                warm_start = (
                    warm_start.weights,
                    warm_start.means,
                    warm_start.covariances,
                )
            k, d = self.n_components, points.shape[1]
            start = tuple(
                np.array(part, dtype=np.float64).reshape(shape)
                for part, shape in zip(warm_start, ((k,), (k, d), (k, d, d)))
            )
            return self._iterate(points, quad, moments, start)
        best = None
        for seed in rng.integers(0, 2**63 - 1, size=self.n_init):
            start = self._seed(
                points, quad, moments, np.random.default_rng(int(seed))
            )
            result = self._iterate(points, quad, moments, start)
            if best is None or result.log_likelihood > best.log_likelihood:
                best = result
        return best


def fit_gmm(
    points: np.ndarray,
    n_components: int,
    rng: np.random.Generator,
    **kwargs,
) -> GaussianMixture:
    """Convenience wrapper: train and return just the model.

    Keyword arguments are forwarded to :class:`EMTrainer`.
    """
    trainer = EMTrainer(n_components=n_components, **kwargs)
    return trainer.fit(points, rng).model
