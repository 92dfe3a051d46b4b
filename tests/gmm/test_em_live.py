"""Warm folds with dead components, against the E+M pass that runs
every component (the oracle).

``_softmax``, ``_block_weighted`` and ``_em_pass`` below are the
fused pass before dead components (weight exactly 0) were skipped,
verbatim but for the restart axis it has since lost.  A warm fold from
a mixture with zero weights must give the same ``FitResult`` bit for
bit, one pass from a mixture with zeros or without must give the
oracle's pass, and a pass over rows that are NaN must poison the
statistics alike.
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


def _softmax(
    weighted: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Masked softmax over the columns of a ``(rows, K)`` slab.

    Consumes ``weighted`` (C-contiguous): it is overwritten with the
    responsibilities.  Returns ``(responsibilities, log_norm,
    safe_peak, totals)`` -- the slab itself, the per-row
    log-normalisers, and the per-row peak shift and row sums each
    responsibility is ``exp(w - safe_peak) / totals`` against.  Rows
    that are ``-inf`` under every component yield ``-inf``
    normalisers (and NaN responsibilities).

    Every value is bit-identical to the plain ``np.exp(weighted -
    safe_peak)`` softmax.  When most peak-shifted exponents lie below
    :data:`_EXP_ZERO_BELOW` (a warm refresh fold, whose collapsed and
    dead components sit hundreds of nats below each row's peak),
    ``np.exp`` runs only on the other lanes -- the fast normal-range
    ones and the rare subnormal band just below -700 -- gathered into
    one contiguous array, and the rest are written as 0.0.  Otherwise
    gathering would cost more than it saves, and ``np.exp`` runs over
    the whole slab.
    """
    peak = weighted.max(axis=1)
    finite = np.isfinite(peak)
    safe_peak = np.where(finite, peak, 0.0)
    np.subtract(weighted, safe_peak[:, None], out=weighted)
    flat = weighted.reshape(-1)
    far = flat < _EXP_ZERO_BELOW
    if 2 * np.count_nonzero(far) > flat.size:
        # NaN lanes compare False, so they are gathered (exp keeps NaN).
        lanes = np.flatnonzero(~far)
        shifted = np.exp(flat[lanes])
        flat.fill(0.0)
        flat[lanes] = shifted
    else:
        np.exp(flat, out=flat)
    totals = weighted.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(weighted, totals[:, None], out=weighted)
        log_norm = np.log(totals) + safe_peak
    log_norm = np.where(finite, log_norm, -np.inf)
    return weighted, log_norm, safe_peak, totals


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
        """One block's weighted log-densities ``(rows, K)``: the
        quadratic-form GEMM, with suspect columns rescored through the
        exact triangular solve."""
        weighted = quad.features[lo:hi] @ coef.T
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
    ):
        """One fused E+M sweep.

        Blocks of rows go through: quadratic-GEMM weighted densities,
        softmax (responsibilities never materialise beyond the
        block), and accumulation of the M-step sufficient statistics
        -- so each block's slab stays cache-hot across all passes.
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
                means, factors, log_det, log_weights,
            )
            resp, norm, safe_peak, totals = _softmax(weighted)
            normalisers.append((safe_peak, totals))
            ll_sum += norm.sum()
            stat_sums += resp.T @ stat_matrix[lo:hi]
        nk = stat_sums[:, -1]
        sum_points = stat_sums[:, :d]
        sum_moments = stat_sums[:, d : d + d * d]

        def exact_covs(suspects, suspect_means, suspect_nk):
            """Exact centered covariances of the suspect components
            from one sweep: per block, the GEMM, then only the
            suspects' columns exponentiated against the normalisers
            the block's softmax cached."""
            covs = np.zeros((suspects.size, d, d), dtype=np.float64)
            for (lo, hi), (safe_peak, totals) in zip(blocks, normalisers):
                weighted = self._block_weighted(
                    quad, points, lo, hi, coef, const, suspect_cols,
                    means, factors, log_det, log_weights,
                )
                shifted = np.exp(weighted[:, suspects] - safe_peak[:, None])
                with np.errstate(divide="ignore", invalid="ignore"):
                    resp = shifted / totals[:, None]
                for s, column in enumerate(resp.T):
                    centered = points[lo:hi] - suspect_means[s]
                    covs[s] += (column[:, None] * centered).T @ centered
            return covs / suspect_nk[:, None, None]

        new_params = self._stats_to_params(
            nk, sum_points, sum_moments, n, moments, exact_covs
        )
        return ll_sum / n, new_params


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

    def spy(self, nk, sum_points, sum_moments, n, moments, exact_covs):
        def counted(suspects, suspect_means, suspect_nk):
            sweeps.append(suspects.size)
            return exact_covs(suspects, suspect_means, suspect_nk)

        return stats_to_params(
            self, nk, sum_points, sum_moments, n, moments, counted
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
                points, _QuadScorer(points), moments, *start
            )

        with np.errstate(invalid="ignore"):
            got = run(EMTrainer(n_components=k))
            expected = run(_EveryLanePass(n_components=k))
        assert _same_bits_pass(got, expected)
        assert np.isnan(got[1][1]).all()


class TestSinglePass:
    """One E+M pass from a mixture holding zeros, or none, equals the
    every-lane pass: the live-lane path and the path a mixture with
    no zero weight takes."""

    @pytest.mark.parametrize("k", [8, 64, 256])
    @pytest.mark.parametrize("dead_share", [0.0, 0.6])
    def test_equals_every_lane_pass(self, k, dead_share, monkeypatch):
        rng = np.random.default_rng([k, round(dead_share * 10)])
        points = _fold_points(rng, 4_500)
        start = _warm_start(rng, points, k, dead_share)
        moments = EMTrainer(n_components=k)._moment_features(points)
        plans = []
        pairwise_plan = linalg.pairwise_plan

        def spy(live, n_components):
            plans.append(live.size)
            return pairwise_plan(live, n_components)

        monkeypatch.setattr(linalg, "pairwise_plan", spy)

        def run(trainer):
            return trainer._em_pass(
                points, _QuadScorer(points), moments, *start
            )

        got = run(EMTrainer(n_components=k))
        assert _same_bits_pass(got, run(_EveryLanePass(n_components=k)))
        # The pass skipped the dead lanes exactly when there were any.
        dead = np.count_nonzero(start[0] == 0.0)
        assert plans == ([k - dead] if dead_share else [])


def _same_bits_pass(a, b) -> bool:
    return _same_bits(a[0], b[0]) and all(
        _same_bits(x, y) for x, y in zip(a[1], b[1])
    )
