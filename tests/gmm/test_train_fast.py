"""Tests for the EM trainer's restarts, warm starts and kernels.

The contract the paper benches rely on: ``n_init`` restarts keep the
bits they had when they ran stacked in one pass (pinned digests);
warm starts skip seeding and still converge; the M-step's one-sweep
suspect covariances give the bits of a full E-sweep per suspect; fits
and k-means land where the mixture that generated the data does; and
the model's quadratic-form scoring kernel agrees with the exact solve
to far better than any decision threshold.
"""

import hashlib

import numpy as np
import pytest

from repro.analysis.distributions import temporal_information_gain
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


def _standard_blobs():
    points = _raw_blobs()
    return (points - points.mean(axis=0)) / points.std(axis=0)


@pytest.fixture(scope="module")
def blobs():
    return _standard_blobs()


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


def _duplicate_lines(offset):
    """Four clusters whose first coordinate sits on exact duplicates
    (like a page axis) while the second spreads, plus a Gaussian blob
    over the last one, shuffled over two EM blocks.  A component that
    settles on one of these lines has zero variance along it, so the
    M-step's covariance guard flags it every pass, while its spread
    along the line depends on every responsibility bit.  A raw-scale
    ``offset`` (1e4) also trips the E-step's cancellation guard."""
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
    return rng.permutation(points) + offset


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


def _host_canary() -> str:
    """Digest of a few operations whose last bits vary with the CPU
    family: numpy's ``exp``/``log`` loops and the BLAS GEMM kernels,
    at the shapes of the E-step and statistics products."""
    rng = np.random.default_rng(0)
    parts = (
        rng.standard_normal((2048, 5)) @ rng.standard_normal((64, 5)).T,
        rng.random((64, 2048)) @ rng.standard_normal((2048, 7)),
        np.exp(rng.uniform(-750.0, 5.0, size=4096)),
        np.log(rng.random(4096)),
    )
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.tobytes())
    return digest.hexdigest()[:16]


def _field_digests(result) -> dict[str, str]:
    """The first 16 hex digits of each ``FitResult`` field's SHA-256."""
    fields = {
        "weights": result.model.weights,
        "means": result.model.means,
        "covariances": result.model.covariances,
        "history": np.array(result.history, dtype=np.float64),
        "n_iter": np.int64(result.n_iter),
        "converged": np.bool_(result.converged),
        "log_likelihood": np.float64(result.log_likelihood),
    }
    return {
        name: hashlib.sha256(
            np.ascontiguousarray(value).tobytes()
        ).hexdigest()[:16]
        for name, value in fields.items()
    }


#: ``_host_canary()`` on the host that recorded the pins below.
HOST_CANARY = "bdcda284eaca2386"

#: Multi-restart fits: case -> (data, K, n_init, max_iter, tol, root
#: seed).  ``blobs`` is the module fixture's data, ``unit`` and
#: ``raw`` the two ``duplicate_clusters`` copies: both trip the
#: M-step's covariance guard in restarts after the first, and the raw
#: one also trips the E-step's cancellation guard.
RESTART_FITS = {
    "blobs-k1-r3": ("blobs", 1, 3, 30, 1e-3, 7),
    "blobs-k4-r4": ("blobs", 4, 4, 30, 1e-3, 7),
    "blobs-k12-r3": ("blobs", 12, 3, 30, 1e-3, 7),
    "blobs-k64-r4": ("blobs", 64, 4, 30, 1e-3, 7),
    "unit-k6-r3": ("unit", 6, 3, 12, 1e-9, 4),
    "raw-k6-r3": ("raw", 6, 3, 12, 1e-9, 4),
}

_DATA = {
    "blobs": _standard_blobs,
    "unit": lambda: _duplicate_lines(0.0),
    "raw": lambda: _duplicate_lines(1e4),
}

#: ``_field_digests`` of each case's fit, recorded when ``fit`` still
#: stacked its restarts along the component axis in one pass.
PINNED_FITS = {
    "blobs-k1-r3": {
        "weights": "6c3c396ed6b5c36d",
        "means": "184841a441f0804c",
        "covariances": "757f323f85e21623",
        "history": "6c27bfd92a8f9c38",
        "n_iter": "d86e8112f3c4c444",
        "converged": "4bf5122f344554c5",
        "log_likelihood": "c4375653ab09e951",
    },
    "blobs-k12-r3": {
        "weights": "d783a131526f5280",
        "means": "438163776e7426a5",
        "covariances": "9f74d7672a23b718",
        "history": "4aa5033cf125d620",
        "n_iter": "6cc16abd70eefb90",
        "converged": "4bf5122f344554c5",
        "log_likelihood": "09e50a29f7c19558",
    },
    "blobs-k4-r4": {
        "weights": "99f1e648e0d90361",
        "means": "f5181e8b2b0ec0ee",
        "covariances": "3b7d6f45a1a6937a",
        "history": "99b435fcba59045e",
        "n_iter": "f0a0278e4372459c",
        "converged": "4bf5122f344554c5",
        "log_likelihood": "5e02227be82bdb4a",
    },
    "blobs-k64-r4": {
        "weights": "22ff253720558ac2",
        "means": "c1bd048b332aec00",
        "covariances": "4e9143c5ea6ff80f",
        "history": "19a11ba22da2a61f",
        "n_iter": "6cc16abd70eefb90",
        "converged": "4bf5122f344554c5",
        "log_likelihood": "67389485c72e59a4",
    },
    "raw-k6-r3": {
        "weights": "86a68ac9e5f486dd",
        "means": "0cb14fba75e8c9fc",
        "covariances": "c17add20341ac2a1",
        "history": "81d9df833e17d0c4",
        "n_iter": "220dde27afee4d53",
        "converged": "6e340b9cffb37a98",
        "log_likelihood": "712455db895493cf",
    },
    "unit-k6-r3": {
        "weights": "d1b810913d9f2067",
        "means": "b01e0d92329aefb7",
        "covariances": "2cc6b16ba2730807",
        "history": "3f6924d2abb64134",
        "n_iter": "220dde27afee4d53",
        "converged": "6e340b9cffb37a98",
        "log_likelihood": "d96c9bf43bdc2a86",
    },
}

#: SHA-256 prefix of ``temporal_information_gain(blobs, n_components=8,
#: max_samples=6_000)`` (two fits of three restarts), recorded then too.
PINNED_GAIN = "58c7fdb3f02fcafa"


@pytest.fixture(scope="module")
def recording_host():
    if _host_canary() != HOST_CANARY:
        pytest.skip(
            "exp/log or GEMM bits differ from the host that recorded "
            "the pins"
        )


class TestPinnedRestarts:
    """``n_init`` restarts keep the bits they had when they ran
    stacked in one pass: every ``FitResult`` field of multi-restart
    fits, and the temporal-gain ablation's value, against digests
    recorded then.  The pins hold on hosts whose floating-point
    libraries give the recording host's bits (``recording_host``)."""

    @pytest.mark.parametrize("case", sorted(RESTART_FITS))
    def test_fit_bits(self, case, recording_host):
        data, k, n_init, max_iter, tol, seed = RESTART_FITS[case]
        trainer = EMTrainer(k, max_iter=max_iter, tol=tol, n_init=n_init)
        result = trainer.fit(_DATA[data](), np.random.default_rng(seed))
        assert _field_digests(result) == PINNED_FITS[case]

    def test_temporal_gain_bits(self, blobs, recording_host):
        gain = temporal_information_gain(
            blobs, n_components=8, max_samples=6_000
        )
        digest = hashlib.sha256(np.float64(gain).tobytes()).hexdigest()
        assert digest[:16] == PINNED_GAIN

    @pytest.mark.parametrize("k,n_init", [(4, 4), (12, 3), (64, 4)])
    def test_keeps_the_best_restart(self, blobs, k, n_init):
        """``fit`` returns the highest-likelihood restart, each seeded
        from the child seed ``fit`` derives for it."""
        trainer = EMTrainer(k, max_iter=30, tol=1e-3, n_init=n_init)
        fitted = trainer.fit(blobs, np.random.default_rng(7))
        seeds = np.random.default_rng(7).integers(
            0, 2**63 - 1, size=n_init
        )
        quad = em._QuadScorer(blobs)
        moments = trainer._moment_features(blobs)
        restarts = [
            trainer._iterate(
                blobs, quad, moments,
                trainer._seed(
                    blobs, quad, moments, np.random.default_rng(int(seed))
                ),
            )
            for seed in seeds
        ]
        assert len({r.log_likelihood for r in restarts}) == n_init
        best = max(restarts, key=lambda result: result.log_likelihood)
        assert _results_identical(fitted, best)

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


def _plain_softmax(weighted):
    """The fused pass's softmax before lane gating, verbatim."""
    peak = weighted.max(axis=1)
    safe_peak = np.where(np.isfinite(peak), peak, 0.0)
    shifted = np.exp(weighted - safe_peak[:, None])
    totals = shifted.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        responsibilities = shifted / totals[:, None]
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

    def _em_pass(self, points, quad, moments, weights, means, covariances):
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
        for lo in range(0, n, em._EM_BLOCK_ROWS):
            hi = min(lo + em._EM_BLOCK_ROWS, n)
            weighted = self._block_weighted(
                quad, points, lo, hi, coef, const, suspect_cols,
                means, factors, log_det, log_weights,
            )
            resp, norm = _plain_softmax(weighted)
            ll_sum += norm.sum()
            stat_sums += resp.T @ stat_matrix[lo:hi]
        nk = stat_sums[:, -1]
        sum_points = stat_sums[:, :d]
        sum_moments = stat_sums[:, d : d + d * d]

        def exact_cov(j, mean_j, nk_safe_j):
            cov = np.zeros((d, d), dtype=np.float64)
            for lo in range(0, n, em._EM_BLOCK_ROWS):
                hi = min(lo + em._EM_BLOCK_ROWS, n)
                weighted = self._block_weighted(
                    quad, points, lo, hi, coef, const, suspect_cols,
                    means, factors, log_det, log_weights,
                )
                column = _plain_softmax(weighted)[0][:, j]
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
            nk, sum_points, sum_moments, n, moments, exact_covs
        )
        return ll_sum / n, new_params


@pytest.fixture
def pass_suspects(monkeypatch):
    """``(restart, suspects)`` for every suspect set the fused pass's
    M-step hands its sweep (the oracle's and the seeding M-step's are
    not recorded); ``restart`` counts the seedings so far from 0, so a
    warm start's sets carry -1."""
    seen, seeded = [], []
    seed, stats_to_params = EMTrainer._seed, EMTrainer._stats_to_params

    def counting_seed(self, *args):
        seeded.append(self)
        return seed(self, *args)

    def spy(self, nk, sum_points, sum_moments, n, moments, exact_covs):
        def recorded(suspects, suspect_means, suspect_nk):
            if exact_covs.__qualname__.startswith("EMTrainer._em_pass"):
                seen.append((len(seeded) - 1, suspects.copy()))
            return exact_covs(suspects, suspect_means, suspect_nk)

        return stats_to_params(
            self, nk, sum_points, sum_moments, n, moments, recorded
        )

    monkeypatch.setattr(EMTrainer, "_seed", counting_seed)
    monkeypatch.setattr(EMTrainer, "_stats_to_params", spy)
    return seen


@pytest.fixture(scope="module", params=[0.0, 1e4], ids=["unit", "raw"])
def duplicate_clusters(request):
    return _duplicate_lines(request.param)


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
        assert sum(s.size for _, s in pass_suspects) > 0
        oracle = _PerSuspectSweep(5, max_iter=8, tol=1e-9).fit(
            points, warm_start=start
        )
        assert _results_identical(fast, oracle)

    def test_restarts_match_per_suspect_sweep(
        self, duplicate_clusters, pass_suspects
    ):
        points = duplicate_clusters
        k = 6
        settings = dict(max_iter=12, tol=1e-9, n_init=3)
        fitted = EMTrainer(k, **settings).fit(
            points, np.random.default_rng(4)
        )
        # Suspects in a restart after the first, so the oracle checks
        # a sweep that follows another restart's passes.
        assert any(restart > 0 for restart, _ in pass_suspects)
        oracle = _PerSuspectSweep(k, **settings).fit(
            points, np.random.default_rng(4)
        )
        assert _results_identical(fitted, oracle)


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
