"""Expectation-Maximization training for the Gaussian mixture.

Sec. 3.3 of the paper: unsupervised EM with (1) an expectation step
computing, via Bayes' theorem, the probability of each trace belonging
to each Gaussian, (2) a maximization step updating ``pi``, ``mu`` and
``Sigma``, and (3) a convergence test on the change of the maximum
likelihood estimate between iterations.

:meth:`EMTrainer.fit` derives one child seed per restart up front,
seeds each restart through the vectorized
:func:`repro.gmm.kmeans.kmeans_fast`, and runs all ``n_init`` restarts
**stacked** (components concatenated along the mixture axis) through
one fused blocked E+M pass.  The pass's log-density is a single
quadratic-form GEMM (``weighted = F @ coef.T + const``, coefficients
from :func:`repro.gmm.linalg.quadratic_coefficients`, shared with
scoring), with a per-component cancellation guard that falls back to
the exact triangular solve when the expansion would lose precision.
When most of a block's lanes underflow, the pass's softmax runs
``np.exp`` only on the lanes whose result can be nonzero; it hands
back its normalisers, so the M-step's suspect-covariance guard gets
every flagged component's exact covariance from one extra sweep.
Both stay bit-identical to the plain softmax and to a full E-sweep
per suspect, and a stacked fit is bit-identical to fitting each
restart alone from its own child seed.  A ``warm_start`` skips
seeding entirely and iterates from a caller-supplied mixture, which
is how the serving loop's :class:`~repro.serving.refresh.ModelRefresher`
folds drifted traffic in without paying initialisation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.gmm import linalg
from repro.gmm.kmeans import kmeans_fast
from repro.gmm.model import GaussianMixture

#: Rows per block of the fused E+M pass.  Small enough that one
#: block's ``(rows, R * K)`` weighted-density slab stays cache-hot
#: across the softmax passes, large enough to amortise call overhead.
_EM_BLOCK_ROWS = 2048

#: Peak-shifted exponents below this make ``np.exp`` return exactly
#: 0.0 (its smallest subnormal result sits at -745.13), so the softmax
#: may write those zeros itself: such a lane costs ``np.exp`` ~12 ns
#: against ~0.7 ns for a normal-range one on a 2-CPU Xeon
#: (``tests/gmm/test_em_softmax.py`` checks the exact zero).
_EXP_ZERO_BELOW = -750.0


def _stacked_softmax(
    stacked: np.ndarray, segments: list[tuple[slice, tuple | None]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Masked softmax over each restart's columns of a ``(rows, M)`` slab.

    ``segments`` holds one ``(column slice, sum plan)`` per restart:
    None when the slice holds all ``K`` of the restart's components
    (the row-major GEMM output), or a
    :func:`~repro.gmm.linalg.pairwise_plan` when it holds only the
    live ones (weight not 0), in component order, each column
    contiguous.  A dead component's term is exactly 0.0 (its
    log-weight is -inf), so leaving it out of the plan's sum changes
    no bit.

    Consumes ``stacked``, which must be contiguous in memory: it is
    overwritten with the responsibilities.  Returns
    ``(responsibilities, log_norm, safe_peak, totals)`` -- the slab
    itself, the ``(rows, R)`` log-normalisers, and the ``(rows, R)``
    peak shift and row sums each responsibility is ``exp(w -
    safe_peak) / totals`` against.  Rows that are ``-inf`` under
    every component yield ``-inf`` normalisers (and NaN
    responsibilities).

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
    shape = (stacked.shape[0], len(segments))
    peak = np.empty(shape)
    for r, (cols, _) in enumerate(segments):
        peak[:, r] = stacked[:, cols].max(axis=1)
    finite = np.isfinite(peak)
    safe_peak = np.where(finite, peak, 0.0)
    for r, (cols, _) in enumerate(segments):
        part = stacked[:, cols]
        np.subtract(part, safe_peak[:, r, None], out=part)
    flat = stacked.ravel(order="K")
    far = flat < _EXP_ZERO_BELOW
    if 2 * np.count_nonzero(far) > flat.size:
        # NaN lanes compare False, so they are gathered (exp keeps NaN).
        lanes = np.flatnonzero(~far)
        shifted = np.exp(flat[lanes])
        flat.fill(0.0)
        flat[lanes] = shifted
    else:
        np.exp(flat, out=flat)
    totals = np.empty(shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        for r, (cols, plan) in enumerate(segments):
            part = stacked[:, cols]
            totals[:, r] = (
                part.sum(axis=1)
                if plan is None
                else linalg.pairwise_lane_sum(part.T, plan)
            )
            np.divide(part, totals[:, r, None], out=part)
        log_norm = np.log(totals) + safe_peak
    log_norm = np.where(finite, log_norm, -np.inf)
    return stacked, log_norm, safe_peak, totals


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
        this matrix.  Beyond speed, the single GEMM is what makes a
        stacked multi-restart pass bit-identical to single-restart
        passes: a GEMM's per-element accumulation order depends only
        on the contraction (row) dimension, whereas numpy's axis-0
        ``sum`` switches between pairwise and sequential accumulation
        with the column count.

        Both inputs are loop-invariant for one fit, so the matrix is
        built once and cached for every subsequent EM iteration.
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
        Number of independent restarts, each seeded by k-means from its
        own child seed; the fit with the best final log-likelihood
        wins.
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
    def _initial_responsibilities(
        self, points: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """One-hot ``(N, K)`` responsibilities of a k-means labelling."""
        n = points.shape[0]
        labels = kmeans_fast(points, self.n_components, rng).labels
        responsibilities = np.zeros((n, self.n_components), dtype=np.float64)
        responsibilities[np.arange(n), labels] = 1.0
        return responsibilities

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
        n_restarts: int,
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

        Weights normalise per restart block of ``n_components``
        columns, so a stacked call is exactly a sequence of
        independent single-restart calls.
        """
        d = moments[0].shape[0]
        k = self.n_components
        m = nk.shape[0]
        nk_safe = np.maximum(nk, 10.0 * np.finfo(np.float64).tiny)
        weights = (nk / n).reshape(n_restarts, k)
        weights = weights / weights.sum(axis=1, keepdims=True)
        weights = weights.reshape(m)
        means = sum_points / nk_safe[:, None]
        second_moment = sum_moments.reshape(m, d, d) / nk_safe[
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
        term_scale = np.abs(second_moment).reshape(m, -1).max(axis=1)
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
        """One block's weighted log-densities ``(rows, M)``.

        Quadratic-form GEMM per restart block of ``n_components``
        columns, every column (one GEMM of identical shape whether
        the pass is stacked or single-restart, or components are
        dead -- BLAS may pick different kernels for different output
        widths, so a wider or narrower GEMM would break those
        identities), with suspect columns rescored through the exact
        triangular solve.  With ``lanes`` (sorted column indices) the
        result holds only those columns, ``(rows, len(lanes))``, each
        contiguous in memory.
        """
        k = self.n_components
        m = coef.shape[0]
        features = quad.features[lo:hi]
        weighted = np.empty((hi - lo, m), dtype=np.float64)
        for r in range(m // k):
            cols = slice(r * k, (r + 1) * k)
            np.matmul(features, coef[cols].T, out=weighted[:, cols])
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
        n_restarts: int,
    ):
        """One fused E+M sweep over ``n_restarts`` stacked restarts.

        Blocks of rows go through: quadratic-GEMM weighted densities,
        per-restart softmax (responsibilities never materialise
        beyond the block), and accumulation of the M-step sufficient
        statistics -- so each block's slab stays cache-hot across all
        passes.  The softmax runs only on live components (weight not
        0) when some are dead: a dead one's responsibility is exactly
        0.0, which its row of the statistics GEMM gets as a stored
        zero.  Each block keeps its softmax normalisers ``(safe_peak,
        totals)``; when the M-step's covariance guard flags suspect
        components, one extra sweep recomputes the block GEMMs and
        exponentiates only the suspects' columns against them.
        Returns per-restart mean log-likelihoods and the updated
        parameters.

        Block boundaries depend only on ``N``, every per-element
        operation only on its own restart's columns, and statistic
        accumulation only on block order -- which is why a stacked
        pass is bit-identical to running each restart alone.
        """
        n, d = points.shape
        m = weights.shape[0]
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
        if live.size == m or not weights[suspect_cols].all():
            # Every lane: none is dead, or a dead one is rescored
            # (its exact value may be NaN, which voids its rows).
            live = None
            segments = [
                (slice(r * k, (r + 1) * k), None)
                for r in range(n_restarts)
            ]
        else:
            bounds = np.searchsorted(live, np.arange(n_restarts + 1) * k)
            restart_live = [
                live[bounds[r] : bounds[r + 1]] - r * k
                for r in range(n_restarts)
            ]
            restart_dead = [
                np.setdiff1d(np.arange(k), lanes) for lanes in restart_live
            ]
            segments = [
                (
                    slice(bounds[r], bounds[r + 1]),
                    linalg.pairwise_plan(lanes, k),
                )
                for r, lanes in enumerate(restart_live)
            ]
            # Per restart and block height: (K, rows) responsibilities
            # whose dead rows stay 0.0 from block to block.
            zero_filled = {}
        stat_matrix = quad.stat_matrix(points, moments[1])
        stat_sums = np.zeros(
            (m, stat_matrix.shape[1]), dtype=np.float64
        )
        ll_sums = np.zeros(n_restarts, dtype=np.float64)
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
            resp, norm, safe_peak, totals = _stacked_softmax(
                weighted, segments
            )
            normalisers.append((safe_peak, totals))
            # Per-restart accumulation with mode-independent shapes:
            # contiguous column sums (a strided axis-0 reduction
            # changes numpy's accumulation path with the restart
            # count) and one (K, rows) @ (rows, stats) GEMM per
            # restart (identical shape stacked or alone, all K rows
            # whichever are dead) keep the stacked pass bit-identical
            # to single-restart passes.
            for r, (cols, _) in enumerate(segments):
                ll_sums[r] += np.ascontiguousarray(norm[:, r]).sum()
                components = slice(r * k, (r + 1) * k)
                if live is None:
                    block = np.ascontiguousarray(resp[:, cols])
                    stat_sums[components] += block.T @ stat_matrix[lo:hi]
                    continue
                block = zero_filled.get((r, hi - lo))
                if block is None:
                    block = zero_filled[r, hi - lo] = np.zeros((k, hi - lo))
                block[restart_live[r]] = resp[:, cols].T
                # A dead responsibility is 0.0 / totals: NaN where the
                # row sum is 0 or NaN.
                bad = np.flatnonzero(~(totals[:, r] > 0.0))
                grid = np.ix_(restart_dead[r], bad)
                with np.errstate(invalid="ignore"):
                    block[grid] = 0.0 / totals[bad, r]
                stat_sums[components] += block @ stat_matrix[lo:hi]
                block[grid] = 0.0
        nk = stat_sums[:, -1]
        sum_points = stat_sums[:, :d]
        sum_moments = stat_sums[:, d : d + d * d]

        def exact_covs(suspects, suspect_means, suspect_nk):
            """Exact centered covariances of the suspect components
            from one sweep: per block, each affected restart's GEMM,
            then only the suspects' columns exponentiated against the
            normalisers the block's softmax cached."""
            covs = np.zeros((suspects.size, d, d), dtype=np.float64)
            restarts = []
            for r in np.unique(suspects // k):
                mine = np.flatnonzero(suspects // k == r)
                r_suspects = suspect_cols[
                    (suspect_cols >= r * k) & (suspect_cols < (r + 1) * k)
                ] - r * k
                restarts.append((r, mine, suspects[mine] - r * k, r_suspects))
            for (lo, hi), (safe_peak, totals) in zip(blocks, normalisers):
                for r, mine, local, r_suspects in restarts:
                    cols = slice(r * k, (r + 1) * k)
                    weighted = self._block_weighted(
                        quad, points, lo, hi,
                        coef[cols], const[cols], r_suspects,
                        means[cols], factors[cols], log_det[cols],
                        log_weights[cols], local,
                    )
                    shifted = np.exp(weighted - safe_peak[:, r, None])
                    with np.errstate(divide="ignore", invalid="ignore"):
                        resp = shifted / totals[:, r, None]
                    for column, s in zip(resp.T, mine):
                        centered = points[lo:hi] - suspect_means[s]
                        covs[s] += (column[:, None] * centered).T @ centered
            return covs / suspect_nk[:, None, None]

        new_params = self._stats_to_params(
            nk, sum_points, sum_moments, n, moments, n_restarts,
            exact_covs,
        )
        return ll_sums / n, new_params

    def _fit_restarts(
        self,
        points: np.ndarray,
        seeds=None,
        warm_start: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    ) -> list[FitResult]:
        """EM over stacked restarts (or one warm start).

        ``seeds`` are per-restart child seeds; each restart seeds its
        initial responsibilities from its own fresh rng, so the
        result is independent of whether restarts run stacked here or
        one call at a time -- the identity the tests and the training
        bench assert.  With
        ``warm_start`` the (single) run skips seeding and iterates
        from the given ``(weights, means, covariances)``.
        """
        n, d = points.shape
        k = self.n_components
        moments = self._moment_features(points)
        quad = _QuadScorer(points)
        if warm_start is not None:
            n_restarts = 1
            weights = np.array(
                warm_start[0], dtype=np.float64
            ).reshape(k)
            means = np.array(
                warm_start[1], dtype=np.float64
            ).reshape(k, d)
            covariances = np.array(
                warm_start[2], dtype=np.float64
            ).reshape(k, d, d)
        else:
            n_restarts = len(seeds)
            responsibilities = np.empty(
                (n, n_restarts * k), dtype=np.float64
            )
            for r, seed in enumerate(seeds):
                rng = np.random.default_rng(int(seed))
                responsibilities[:, r * k : (r + 1) * k] = (
                    self._initial_responsibilities(points, rng)
                )
            stat_matrix = quad.stat_matrix(points, moments[1])
            stat_sums = np.empty(
                (n_restarts * k, stat_matrix.shape[1]),
                dtype=np.float64,
            )
            for r in range(n_restarts):
                cols = slice(r * k, (r + 1) * k)
                block = np.ascontiguousarray(
                    responsibilities[:, cols]
                )
                stat_sums[cols] = block.T @ stat_matrix
            nk = stat_sums[:, -1]
            sum_points = stat_sums[:, :d]
            sum_moments = stat_sums[:, d : d + d * d]

            def exact_covs(suspects, suspect_means, suspect_nk):
                covs = np.empty((suspects.size, d, d), dtype=np.float64)
                for s, j in enumerate(suspects):
                    centered = points - suspect_means[s]
                    weighted = responsibilities[:, j : j + 1] * centered
                    covs[s] = (weighted.T @ centered) / suspect_nk[s]
                return covs

            weights, means, covariances = self._stats_to_params(
                nk, sum_points, sum_moments, n, moments, n_restarts,
                exact_covs,
            )
            del responsibilities

        active = np.ones(n_restarts, dtype=bool)
        previous = np.full(n_restarts, -np.inf)
        histories: list[list[float]] = [[] for _ in range(n_restarts)]
        n_iter = np.zeros(n_restarts, dtype=np.int64)
        converged = np.zeros(n_restarts, dtype=bool)
        weights = weights.reshape(n_restarts, k)
        means = means.reshape(n_restarts, k, d)
        covariances = covariances.reshape(n_restarts, k, d, d)
        for iteration in range(1, self.max_iter + 1):
            alive = np.nonzero(active)[0]
            if alive.size == 0:
                break
            lls, (w_new, m_new, c_new) = self._em_pass(
                points,
                quad,
                moments,
                weights[alive].reshape(-1),
                means[alive].reshape(-1, d),
                covariances[alive].reshape(-1, d, d),
                alive.size,
            )
            weights[alive] = w_new.reshape(alive.size, k)
            means[alive] = m_new.reshape(alive.size, k, d)
            covariances[alive] = c_new.reshape(alive.size, k, d, d)
            n_iter[alive] = iteration
            for position, r in enumerate(alive):
                histories[r].append(float(lls[position]))
            done = np.abs(lls - previous[alive]) < self.tol
            converged[alive[done]] = True
            previous[alive] = lls
            active[alive[done]] = False

        results = []
        for r in range(n_restarts):
            model = GaussianMixture(
                weights[r],
                means[r],
                linalg.ensure_positive_definite(
                    covariances[r], self.reg_covar
                ),
            )
            results.append(
                FitResult(
                    model=model,
                    converged=bool(converged[r]),
                    n_iter=int(n_iter[r]),
                    log_likelihood=model.mean_log_likelihood(points),
                    history=tuple(histories[r]),
                )
            )
        return results

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

    @staticmethod
    def _best(results: list[FitResult]) -> FitResult:
        best: FitResult | None = None
        for result in results:
            if best is None or result.log_likelihood > best.log_likelihood:
                best = result
        assert best is not None  # n_init >= 1
        return best

    def fit(
        self,
        points: np.ndarray,
        rng: np.random.Generator | None = None,
        warm_start=None,
    ) -> FitResult:
        """Fit the mixture to ``points`` of shape ``(N, D)``.

        Runs ``n_init`` restarts stacked in one pass (see the module
        docstring) and returns the result with the highest final
        log-likelihood.

        Parameters
        ----------
        rng:
            Root randomness; each restart derives an independent
            child seed from it up front, so a stacked fit equals
            fitting each restart alone.  Required unless
            ``warm_start`` is given.
        warm_start:
            A :class:`GaussianMixture` (or ``(weights, means,
            covariances)`` tuple) to start EM from; skips seeding and
            restarts entirely.  This is the
            :class:`~repro.serving.refresh.ModelRefresher` refresh
            path -- the deployed mixture is already a good starting
            point for the drifted traffic.
        """
        points = self._validate_points(points)
        if warm_start is not None:
            if isinstance(warm_start, GaussianMixture):
                start = (
                    warm_start.weights,
                    warm_start.means,
                    warm_start.covariances,
                )
            else:
                start = tuple(warm_start)
            return self._fit_restarts(points, warm_start=start)[0]
        if rng is None:
            raise ValueError("fit needs an rng unless warm_start is given")
        seeds = rng.integers(0, 2**63 - 1, size=self.n_init)
        return self._best(self._fit_restarts(points, seeds))


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
