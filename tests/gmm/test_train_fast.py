"""Tests for the EM trainer's stacked restarts, warm starts and kernels.

The contract the training bench relies on: ``n_init`` restarts
stacked in one pass produce *identical* models to each restart
fitted alone from its own child seed; warm starts skip seeding and
still converge; the M-step's one-sweep suspect covariances give the
bits of a full E-sweep per suspect; fits and k-means land where the
mixture that generated the data does; and the model's quadratic-form
scoring kernel agrees with the exact solve to far better than any
decision threshold.
"""

import numpy as np
import pytest

from repro.gmm import em, linalg
from repro.gmm.em import EMTrainer
from repro.gmm.kmeans import kmeans_fast
from repro.gmm.model import GaussianMixture


def _solve_log_score(model, points):
    """``log G(x)`` through the exact triangular solve (the oracle)."""
    weighted = linalg.log_gaussian_density(
        points, model.means, model.covariances
    )
    with np.errstate(divide="ignore"):
        weighted = weighted + np.log(model.weights)
    return linalg.logsumexp(weighted, axis=1)


#: Centres and per-axis spread of the six Gaussians behind ``blobs``.
BLOB_CENTRES = np.array([(i % 3, i // 3) for i in range(6)], dtype=float)
BLOB_SCALE = 0.35


def _raw_blobs():
    rng = np.random.default_rng(0)
    return np.concatenate(
        [
            rng.normal(loc=centre, scale=BLOB_SCALE, size=(1500, 2))
            for centre in BLOB_CENTRES
        ]
    )


@pytest.fixture(scope="module")
def blobs():
    points = _raw_blobs()
    return (points - points.mean(axis=0)) / points.std(axis=0)


def _generating_mixture():
    """The mixture that drew ``blobs``, in its standardised frame."""
    points = _raw_blobs()
    mean, std = points.mean(axis=0), points.std(axis=0)
    covariance = np.diag((BLOB_SCALE / std) ** 2)
    return GaussianMixture(
        np.full(6, 1 / 6),
        (BLOB_CENTRES - mean) / std,
        np.tile(covariance, (6, 1, 1)),
    )


def _results_identical(a, b) -> bool:
    return (
        np.array_equal(a.model.weights, b.model.weights)
        and np.array_equal(a.model.means, b.model.means)
        and np.array_equal(a.model.covariances, b.model.covariances)
        and a.n_iter == b.n_iter
        and a.converged == b.converged
        and a.log_likelihood == b.log_likelihood
        and a.history == b.history
    )


def _assert_stacked_equals_alone(trainer, points, seed):
    """``fit`` and every stacked restart against each restart fitted
    alone from the child seed ``fit`` derives for it."""
    fitted = trainer.fit(points, np.random.default_rng(seed))
    seeds = np.random.default_rng(seed).integers(
        0, 2**63 - 1, size=trainer.n_init
    )
    alone = [trainer._fit_restarts(points, [s])[0] for s in seeds]
    stacked = trainer._fit_restarts(points, seeds)
    assert len(stacked) == len(alone)
    for together, single in zip(stacked, alone):
        assert _results_identical(together, single)
    best = max(alone, key=lambda result: result.log_likelihood)
    assert _results_identical(fitted, best)


class TestRestartModeIdentity:
    """One stacked pass over ``n_init`` restarts equals fitting each
    restart on its own."""

    @pytest.mark.parametrize(
        "k,n_init", [(1, 3), (4, 4), (12, 3), (64, 4)]
    )
    def test_batched_equals_sequential(self, blobs, k, n_init):
        trainer = EMTrainer(k, max_iter=30, tol=1e-3, n_init=n_init)
        _assert_stacked_equals_alone(trainer, blobs, 7)

    def test_deterministic_given_seed(self, blobs):
        trainer = EMTrainer(5, n_init=2)
        a = trainer.fit(blobs, np.random.default_rng(42))
        b = trainer.fit(blobs, np.random.default_rng(42))
        assert _results_identical(a, b)

    def test_validation(self):
        with pytest.raises(ValueError, match="rng"):
            EMTrainer(2).fit(np.zeros((10, 2)))


class TestFastPathQuality:
    def test_matches_reference_likelihood(self, blobs):
        """The reference likelihood is the generating mixture's: a
        fit that lands in its basin scores at least as well on the
        points it was fitted to, up to the convergence tolerance."""
        fit = EMTrainer(6, max_iter=60, tol=1e-4).fit(
            blobs, np.random.default_rng(5)
        )
        reference = _solve_log_score(_generating_mixture(), blobs)
        assert fit.log_likelihood >= reference.mean() - 0.01

    def test_history_monotone(self, blobs):
        result = EMTrainer(5, max_iter=40, tol=1e-12).fit(
            blobs, np.random.default_rng(2)
        )
        history = np.array(result.history)
        assert np.all(np.diff(history) >= -1e-8)

    def test_extreme_raw_scale_guard(self):
        """Raw-scale data far from the origin trips the quadratic
        expansion's cancellation guard; the exact fallback must keep
        the fit finite and positive-definite."""
        rng = np.random.default_rng(0)
        points = np.concatenate(
            [
                rng.normal(1e8, 1e-4, size=(400, 2)),
                rng.normal(0.0, 1.0, size=(400, 2)),
            ]
        )
        result = EMTrainer(2, max_iter=20).fit(
            points, np.random.default_rng(1)
        )
        for cov in result.model.covariances:
            assert np.all(np.linalg.eigvalsh(cov) > 0)
        assert np.isfinite(result.log_likelihood)


def _plain_softmax(stacked):
    """The fused pass's softmax before lane gating, verbatim."""
    peak = stacked.max(axis=2)
    safe_peak = np.where(np.isfinite(peak), peak, 0.0)
    shifted = np.exp(stacked - safe_peak[:, :, None])
    totals = shifted.sum(axis=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        responsibilities = shifted / totals[:, :, None]
        log_norm = np.log(totals) + safe_peak
    log_norm = np.where(np.isfinite(peak), log_norm, -np.inf)
    return responsibilities, log_norm


class _PerSuspectSweep(EMTrainer):
    """The fused E+M pass before the one-sweep suspect covariances
    (the oracle): plain-``exp`` softmax, and for every suspect
    component a full E-sweep -- GEMM and softmax over every row -- to
    get its one responsibility column.  The M-step closed form is
    the trainer's own."""

    def _block_weighted(
        self, quad, points, lo, hi, coef, const, suspect_cols,
        means, factors, log_det, log_weights,
    ):
        k = self.n_components
        m = coef.shape[0]
        features = quad.features[lo:hi]
        weighted = np.empty((hi - lo, m), dtype=np.float64)
        for r in range(m // k):
            cols = slice(r * k, (r + 1) * k)
            weighted[:, cols] = features @ coef[cols].T
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
        self, points, quad, moments, weights, means, covariances,
        n_restarts,
    ):
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
        stat_sums = np.zeros((m, stat_matrix.shape[1]), dtype=np.float64)
        ll_sums = np.zeros(n_restarts, dtype=np.float64)
        for lo in range(0, n, em._EM_BLOCK_ROWS):
            hi = min(lo + em._EM_BLOCK_ROWS, n)
            weighted = self._block_weighted(
                quad, points, lo, hi, coef, const, suspect_cols,
                means, factors, log_det, log_weights,
            )
            resp, norm = _plain_softmax(
                weighted.reshape(hi - lo, n_restarts, k)
            )
            for r in range(n_restarts):
                ll_sums[r] += np.ascontiguousarray(norm[:, r]).sum()
                block = np.ascontiguousarray(resp[:, r, :])
                cols = slice(r * k, (r + 1) * k)
                stat_sums[cols] += block.T @ stat_matrix[lo:hi]
        nk = stat_sums[:, -1]
        sum_points = stat_sums[:, :d]
        sum_moments = stat_sums[:, d : d + d * d]

        def exact_cov(j, mean_j, nk_safe_j):
            restart = j // k
            cov = np.zeros((d, d), dtype=np.float64)
            cols = slice(restart * k, (restart + 1) * k)
            r_suspects = suspect_cols[
                (suspect_cols >= restart * k)
                & (suspect_cols < (restart + 1) * k)
            ] - restart * k
            for lo in range(0, n, em._EM_BLOCK_ROWS):
                hi = min(lo + em._EM_BLOCK_ROWS, n)
                weighted = self._block_weighted(
                    quad, points, lo, hi,
                    coef[cols], const[cols], r_suspects,
                    means[cols], factors[cols], log_det[cols],
                    log_weights[cols],
                )
                resp, _ = _plain_softmax(weighted.reshape(hi - lo, 1, k))
                column = resp.reshape(hi - lo, k)[:, j - restart * k]
                centered = points[lo:hi] - mean_j
                cov += (column[:, None] * centered).T @ centered
            return cov / nk_safe_j

        def exact_covs(suspects, suspect_means, suspect_nk):
            return np.array(
                [
                    exact_cov(j, mean_j, nk_j)
                    for j, mean_j, nk_j in zip(
                        suspects, suspect_means, suspect_nk
                    )
                ]
            ).reshape(-1, d, d)

        new_params = self._stats_to_params(
            nk, sum_points, sum_moments, n, moments, n_restarts,
            exact_covs,
        )
        return ll_sums / n, new_params


@pytest.fixture
def pass_suspects(monkeypatch):
    """Suspect sets the fused pass's M-step hands its sweep (the
    oracle's and the seeding M-step's are not recorded)."""
    seen = []
    stats_to_params = EMTrainer._stats_to_params

    def spy(self, nk, sum_points, sum_moments, n, moments, n_restarts,
            exact_covs):
        def recorded(suspects, suspect_means, suspect_nk):
            if exact_covs.__qualname__.startswith("EMTrainer._em_pass"):
                seen.append(suspects.copy())
            return exact_covs(suspects, suspect_means, suspect_nk)

        return stats_to_params(
            self, nk, sum_points, sum_moments, n, moments, n_restarts,
            recorded,
        )

    monkeypatch.setattr(EMTrainer, "_stats_to_params", spy)
    return seen


@pytest.fixture(scope="module", params=[0.0, 1e4], ids=["unit", "raw"])
def duplicate_clusters(request):
    """Four clusters whose first coordinate sits on exact duplicates
    (like a page axis) while the second spreads, plus a Gaussian blob
    over the last one, shuffled over two EM blocks.  A component that
    settles on one of these lines has zero variance along it, so the
    M-step's covariance guard flags it every pass, while its spread
    along the line depends on every responsibility bit.  The
    raw-scale copy also trips the E-step's cancellation guard."""
    rng = np.random.default_rng(11)
    points = np.concatenate(
        [
            np.column_stack(
                [np.full(600, page), rng.normal(0.0, 1.0, size=600)]
            )
            for page in (-6.0, -2.0, 2.0, 6.0)
        ]
        + [rng.normal((6.0, 0.0), 1.0, size=(1500, 2))]
    )
    return rng.permutation(points) + request.param


class TestSuspectCovarianceSweep:
    """One sweep over cached softmax normalisers replaces a full
    E-sweep per suspect component, with identical bits."""

    def test_warm_start_matches_per_suspect_sweep(
        self, duplicate_clusters, pass_suspects
    ):
        points = duplicate_clusters
        start = EMTrainer(5, max_iter=10).fit(
            points, np.random.default_rng(1)
        ).model
        pass_suspects.clear()
        fast = EMTrainer(5, max_iter=8, tol=1e-9).fit(
            points, warm_start=start
        )
        assert sum(s.size for s in pass_suspects) > 0
        oracle = _PerSuspectSweep(5, max_iter=8, tol=1e-9).fit(
            points, warm_start=start
        )
        assert _results_identical(fast, oracle)

    def test_stacked_restarts_match_per_suspect_sweep(
        self, duplicate_clusters, pass_suspects
    ):
        points = duplicate_clusters
        k = 6
        settings = dict(max_iter=12, tol=1e-9, n_init=3)
        batched = EMTrainer(k, **settings).fit(
            points, np.random.default_rng(4)
        )
        # Suspects outside restart 0, so a sweep reading restart 0's
        # normalisers for every restart cannot pass.
        assert any((s >= k).any() for s in pass_suspects)
        oracle = _PerSuspectSweep(k, **settings).fit(
            points, np.random.default_rng(4)
        )
        assert _results_identical(batched, oracle)
        _assert_stacked_equals_alone(EMTrainer(k, **settings), points, 4)


class TestWarmStart:
    def test_skips_seeding_and_improves(self, blobs):
        base = EMTrainer(4, max_iter=40).fit(
            blobs, np.random.default_rng(0)
        )
        rng = np.random.default_rng(9)
        shifted = blobs + rng.normal(0.4, 0.05, size=2)
        warm = EMTrainer(4, max_iter=10, tol=1e-3).fit(
            shifted, warm_start=base.model
        )
        frozen_ll = base.model.mean_log_likelihood(shifted)
        assert warm.log_likelihood > frozen_ll
        assert warm.model.n_components == 4

    def test_accepts_parameter_tuple(self, blobs):
        base = EMTrainer(3, max_iter=30).fit(
            blobs, np.random.default_rng(0)
        )
        model = base.model
        warm = EMTrainer(3, max_iter=5).fit(
            blobs,
            warm_start=(
                model.weights, model.means, model.covariances
            ),
        )
        assert isinstance(warm.model, GaussianMixture)


class TestFastKMeans:
    def test_every_cluster_alive(self, blobs):
        result = kmeans_fast(blobs, 16, np.random.default_rng(4))
        assert len(np.unique(result.labels)) == 16
        assert result.centers.shape == (16, 2)
        assert result.inertia >= 0.0

    def test_inertia_comparable_to_reference(self, blobs):
        """The reference labels each point by its nearest generating
        centre."""
        fast = kmeans_fast(blobs, 6, np.random.default_rng(1))
        centres = _generating_mixture().means
        squared = ((blobs[:, None, :] - centres[None]) ** 2).sum(axis=2)
        assert fast.inertia <= squared.min(axis=1).sum() * 1.05

    def test_deterministic(self, blobs):
        a = kmeans_fast(blobs, 5, np.random.default_rng(8))
        b = kmeans_fast(blobs, 5, np.random.default_rng(8))
        np.testing.assert_array_equal(a.centers, b.centers)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_duplicate_points(self):
        points = np.repeat(
            np.array([[1.0, 2.0], [5.0, 6.0]]), 40, axis=0
        )
        result = kmeans_fast(points, 2, np.random.default_rng(0))
        assert len(np.unique(result.labels)) == 2

    def test_rejects_too_few_points(self):
        with pytest.raises(ValueError, match="at least"):
            kmeans_fast(np.zeros((2, 2)), 5, np.random.default_rng(0))


class TestFastScorer:
    """The model's scoring kernel against the exact-solve oracle."""

    def test_agrees_with_exact_scorer(self, blobs):
        model = EMTrainer(5, max_iter=30).fit(
            blobs, np.random.default_rng(0)
        ).model
        exact = _solve_log_score(model, blobs)
        fast = model.log_score_samples(blobs)
        np.testing.assert_allclose(fast, exact, rtol=1e-9, atol=1e-9)

    def test_guard_keeps_raw_scale_exact(self):
        rng = np.random.default_rng(2)
        points = rng.normal(1e7, 1.0, size=(500, 2))
        weights = np.array([0.5, 0.5])
        means = points[:2] + 0.5
        covariances = np.tile(np.eye(2) * 1e-4, (2, 1, 1))
        model = GaussianMixture(weights, means, covariances)
        exact = _solve_log_score(model, points)
        fast = model.log_score_samples(points)
        np.testing.assert_allclose(fast, exact, rtol=1e-8, atol=1e-6)
