"""Warm folds and stacked passes with dead components, against the
E+M pass that runs every component (the oracle).

``_stacked_softmax``, ``_block_weighted`` and ``_em_pass`` below are
the fused pass before dead components (weight exactly 0) were
skipped, verbatim.  A warm fold from a mixture with zero weights must
give the same ``FitResult`` bit for bit, and a stacked pass whose
restarts hold zeros at different components must give each restart
what its single-restart pass gives.
"""

import numpy as np
import pytest

from repro.gmm import linalg
from repro.gmm.em import (
    _EM_BLOCK_ROWS,
    _EXP_ZERO_BELOW,
    EMTrainer,
    FitResult,
    _QuadScorer,
)


def _stacked_softmax(
    stacked: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Masked softmax over the last axis of a ``(rows, R, K)`` slab.

    Consumes ``stacked`` (C-contiguous): it is overwritten with the
    responsibilities.  Returns ``(responsibilities, log_norm,
    safe_peak, totals)`` -- the slab itself, the ``(rows, R)``
    log-normalisers, and the ``(rows, R)`` peak shift and row sums
    each responsibility is ``exp(w - safe_peak) / totals`` against.
    Rows that are ``-inf`` under every component yield ``-inf``
    normalisers (and NaN responsibilities).

    Every value is bit-identical to the plain ``np.exp(stacked -
    safe_peak)`` softmax.  When most peak-shifted exponents lie below
    :data:`_EXP_ZERO_BELOW` (a warm refresh fold, whose collapsed and
    dead components sit hundreds of nats below each row's peak),
    ``np.exp`` runs only on the other lanes -- the fast normal-range
    ones and the rare subnormal band just below -700 -- gathered into
    one contiguous array, and the rest are written as 0.0.  Otherwise
    gathering would cost more than it saves, and ``np.exp`` runs over
    the whole slab.
    """
    peak = stacked.max(axis=2)
    finite = np.isfinite(peak)
    safe_peak = np.where(finite, peak, 0.0)
    np.subtract(stacked, safe_peak[:, :, None], out=stacked)
    flat = stacked.reshape(-1)
    far = flat < _EXP_ZERO_BELOW
    if 2 * np.count_nonzero(far) > flat.size:
        # NaN lanes compare False, so they are gathered (exp keeps NaN).
        lanes = np.flatnonzero(~far)
        shifted = np.exp(flat[lanes])
        flat.fill(0.0)
        flat[lanes] = shifted
    else:
        np.exp(flat, out=flat)
    totals = stacked.sum(axis=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(stacked, totals[:, :, None], out=stacked)
        log_norm = np.log(totals) + safe_peak
    log_norm = np.where(finite, log_norm, -np.inf)
    return stacked, log_norm, safe_peak, totals


class _EveryLanePass(EMTrainer):
    """The fused E+M pass over every component (the oracle)."""

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
    ) -> np.ndarray:
        """One block's weighted log-densities ``(rows, M)``.

        Quadratic-form GEMM per restart block of ``n_components``
        columns (one GEMM of identical shape whether the pass is
        stacked or single-restart -- BLAS may pick different kernels
        for different output widths, so a single wide GEMM would
        break the stacked/single-restart identity), with suspect columns
        rescored through the exact triangular solve.
        """
        k = self.n_components
        m = coef.shape[0]
        features = quad.features[lo:hi]
        weighted = np.empty((hi - lo, m), dtype=np.float64)
        for r in range(m // k):
            cols = slice(r * k, (r + 1) * k)
            np.matmul(features, coef[cols].T, out=weighted[:, cols])
        weighted += const
        if suspect_cols.size:
            weighted[:, suspect_cols] = linalg.exact_log_weighted(
                points[lo:hi],
                means[suspect_cols],
                factors[suspect_cols],
                log_det[suspect_cols],
                log_weights[suspect_cols],
            )
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
        passes.  Each block keeps its softmax normalisers ``(safe_peak,
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
                means, factors, log_det, log_weights,
            )
            resp, norm, safe_peak, totals = _stacked_softmax(
                weighted.reshape(hi - lo, n_restarts, k)
            )
            normalisers.append((safe_peak, totals))
            # Per-restart accumulation with mode-independent shapes:
            # contiguous column sums (a strided axis-0 reduction
            # changes numpy's accumulation path with the restart
            # count) and one (K, rows) @ (rows, stats) GEMM per
            # restart (identical shape stacked or alone) keep the
            # stacked pass bit-identical to single-restart passes.
            for r in range(n_restarts):
                ll_sums[r] += np.ascontiguousarray(norm[:, r]).sum()
                block = np.ascontiguousarray(resp[:, r, :])
                cols = slice(r * k, (r + 1) * k)
                stat_sums[cols] += block.T @ stat_matrix[lo:hi]
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
                        log_weights[cols],
                    )
                    shifted = np.exp(
                        weighted[:, local] - safe_peak[:, r, None]
                    )
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


#: The ridge a warm fold leaves on a dead component, as the serving
#: engine's mixture holds it (``EM_REG_COVAR`` plus the final
#: positive-definite repair).
_DEAD_COVARIANCE = 2e-6 * np.eye(2)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(
        a.view(np.uint64), b.view(np.uint64)
    )


def _same_fit(a: FitResult, b: FitResult) -> bool:
    return (
        _same_bits(a.model.weights, b.model.weights)
        and _same_bits(a.model.means, b.model.means)
        and _same_bits(a.model.covariances, b.model.covariances)
        and _same_bits(a.history, b.history)
        and _same_bits(a.log_likelihood, b.log_likelihood)
        and a.n_iter == b.n_iter
        and a.converged == b.converged
    )


def _fold_points(rng, n):
    """Standardised traffic whose first (page-like) coordinate sits on
    duplicate values, plus a far cluster: components settle on the
    duplicate lines (the M-step's suspect covariances) and the far
    ones collapse to weight 0."""
    points = rng.standard_normal((n, 2))
    points[:, 0] = np.round(points[:, 0] * 4.0) / 4.0
    far = rng.random(n) < 0.1
    points[far] = rng.normal((60.0, -8.0), 0.5, size=(int(far.sum()), 2))
    return points


def _warm_start(rng, points, k, dead_share):
    """A deployed mixture: a share of dead components (weight 0 at the
    origin with the fold's ridge), live ones on the data, one on a
    duplicate line (narrow across it) and one far from every point."""
    dead = rng.random(k) < dead_share
    line, stray = rng.choice(k, 2, replace=False) if k > 1 else (0, None)
    dead[[line, stray] if stray is not None else [line]] = False
    weights = np.where(dead, 0.0, rng.random(k) + 0.05)
    weights /= weights.sum()
    means = points[rng.choice(points.shape[0], k)]
    means += rng.normal(0.0, 0.1, size=(k, 2))
    scale = rng.uniform(0.01, 0.5, size=(k, 1, 1))
    covariances = scale * np.eye(2) + 1e-3
    means[line] = (0.25, 0.0)
    covariances[line] = np.diag([1e-4, 0.5])
    if stray is not None:
        means[stray] = (0.0, 400.0)
    means[dead] = 0.0
    covariances[dead] = _DEAD_COVARIANCE
    return weights, means, covariances


@pytest.fixture
def suspect_sweeps(monkeypatch):
    """Counts M-steps whose covariance guard flagged a component."""
    sweeps = []
    stats_to_params = EMTrainer._stats_to_params

    def spy(self, nk, sum_points, sum_moments, n, moments, n_restarts,
            exact_covs):
        def counted(suspects, suspect_means, suspect_nk):
            sweeps.append(suspects.size)
            return exact_covs(suspects, suspect_means, suspect_nk)

        return stats_to_params(
            self, nk, sum_points, sum_moments, n, moments, n_restarts,
            counted,
        )

    monkeypatch.setattr(EMTrainer, "_stats_to_params", spy)
    return sweeps


class TestWarmFolds:
    """A warm fold from a mixture with zero weights, as the serving
    refresh runs it, equals the every-lane pass's fold."""

    @pytest.mark.parametrize("k", [8, 64, 256])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_fit_result_bit_identical(self, k, seed, suspect_sweeps):
        rng = np.random.default_rng([k, seed])
        points = _fold_points(rng, 5_000)
        start = _warm_start(rng, points, k, dead_share=0.5)
        kwargs = dict(n_components=k, max_iter=8, tol=1e-3, reg_covar=1e-6)
        got = EMTrainer(**kwargs).fit(points, warm_start=start)
        expected = _EveryLanePass(**kwargs).fit(points, warm_start=start)
        assert _same_fit(got, expected)
        # The fold kills components beyond the dead start and trips
        # the covariance guard, so both of those paths were compared.
        assert np.count_nonzero(got.model.weights == 0.0) > np.count_nonzero(
            start[0] == 0.0
        )
        assert any(suspect_sweeps)


class TestStackedRestarts:
    """Restarts holding zeros at different components, one holding
    none, stacked in one pass: each restart's outputs equal its
    single-restart pass, and the every-lane pass."""

    @pytest.mark.parametrize("k", [8, 64, 256])
    @pytest.mark.parametrize("n_restarts", [2, 3])
    def test_each_restart_equals_its_own_pass(self, k, n_restarts):
        rng = np.random.default_rng([k, n_restarts])
        points = _fold_points(rng, 4_500)
        full = rng.integers(n_restarts)
        starts = [
            _warm_start(rng, points, k, 0.0 if r == full else 0.6)
            for r in range(n_restarts)
        ]
        stacked = [np.concatenate(part) for part in zip(*starts)]
        trainer = EMTrainer(n_components=k)
        moments = trainer._moment_features(points)

        def run(trainer, params, restarts):
            return trainer._em_pass(
                points, _QuadScorer(points), moments, *params, restarts
            )

        got = run(trainer, stacked, n_restarts)
        assert _same_bits_pass(
            got, run(_EveryLanePass(n_components=k), stacked, n_restarts)
        )
        lls, (weights, means, covariances) = got
        for r, start in enumerate(starts):
            alone_lls, (w, m, c) = run(trainer, start, 1)
            cols = slice(r * k, (r + 1) * k)
            assert _same_bits(lls[r : r + 1], alone_lls)
            assert _same_bits(weights[cols], w)
            assert _same_bits(means[cols], m)
            assert _same_bits(covariances[cols], c)

    def test_nan_rows_poison_dead_statistics_alike(self):
        """A NaN row has no finite peak: every responsibility in it is
        NaN, a dead component's too (0.0 over a NaN row sum), so the
        statistics go NaN exactly as the every-lane pass's do."""
        rng = np.random.default_rng(0)
        k = 16
        points = _fold_points(rng, 3_000)
        points[[5, 2_500]] = np.nan
        points[7, 0] = np.nan
        start = _warm_start(rng, points, k, dead_share=0.4)
        moments = EMTrainer(n_components=k)._moment_features(points)

        def run(trainer):
            return trainer._em_pass(
                points, _QuadScorer(points), moments, *start, 1
            )

        with np.errstate(invalid="ignore"):
            got = run(EMTrainer(n_components=k))
            expected = run(_EveryLanePass(n_components=k))
        assert _same_bits_pass(got, expected)
        assert np.isnan(got[1][1]).all()


def _same_bits_pass(a, b) -> bool:
    return _same_bits(a[0], b[0]) and all(
        _same_bits(x, y) for x, y in zip(a[1], b[1])
    )
