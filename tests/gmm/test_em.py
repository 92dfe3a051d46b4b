"""Tests for the EM trainer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gmm.em import EMTrainer, fit_gmm
from repro.gmm.model import GaussianMixture


def _two_blob_data(rng, n_per=300):
    a = rng.multivariate_normal([0.0, 0.0], np.eye(2), size=n_per)
    b = rng.multivariate_normal([8.0, 8.0], 0.5 * np.eye(2), size=n_per)
    data = np.concatenate([a, b])
    rng.shuffle(data)
    return data


class TestValidation:
    def test_rejects_bad_n_components(self):
        with pytest.raises(ValueError, match="n_components"):
            EMTrainer(0)

    def test_rejects_bad_max_iter(self):
        with pytest.raises(ValueError, match="max_iter"):
            EMTrainer(2, max_iter=0)

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError, match="tol"):
            EMTrainer(2, tol=0.0)

    def test_rejects_bad_n_init(self):
        with pytest.raises(ValueError, match="n_init"):
            EMTrainer(2, n_init=0)

    def test_rejects_1d_points(self, rng):
        with pytest.raises(ValueError, match=r"\(N, D\)"):
            EMTrainer(2).fit(np.zeros(10), rng)

    def test_rejects_too_few_points(self, rng):
        with pytest.raises(ValueError, match="at least"):
            EMTrainer(5).fit(np.zeros((3, 2)), rng)


class TestFit:
    def test_recovers_two_blobs(self, rng):
        data = _two_blob_data(rng)
        result = EMTrainer(2, max_iter=200).fit(data, rng)
        means = result.model.means
        # One mean near each blob center, order-free.
        d0 = np.linalg.norm(means - np.array([0.0, 0.0]), axis=1)
        d8 = np.linalg.norm(means - np.array([8.0, 8.0]), axis=1)
        assert np.min(d0) < 0.5
        assert np.min(d8) < 0.5

    def test_weights_roughly_balanced(self, rng):
        data = _two_blob_data(rng)
        result = EMTrainer(2, max_iter=200).fit(data, rng)
        np.testing.assert_allclose(
            np.sort(result.model.weights), [0.5, 0.5], atol=0.1
        )

    def test_log_likelihood_monotone(self, rng):
        data = _two_blob_data(rng)
        result = EMTrainer(3, max_iter=50, tol=1e-12).fit(data, rng)
        history = np.array(result.history)
        # EM guarantee: likelihood never decreases (small float slack).
        assert np.all(np.diff(history) >= -1e-8)

    def test_converged_flag_set_on_easy_problem(self, rng):
        data = _two_blob_data(rng)
        result = EMTrainer(2, max_iter=500, tol=1e-6).fit(data, rng)
        assert result.converged
        assert result.n_iter <= 500

    def test_n_init_picks_best(self, rng):
        data = _two_blob_data(rng)
        single = EMTrainer(2, n_init=1).fit(
            data, np.random.default_rng(0)
        )
        multi = EMTrainer(2, n_init=4).fit(
            data, np.random.default_rng(0)
        )
        assert multi.log_likelihood >= single.log_likelihood - 1e-9

    def test_deterministic_given_seed(self, rng_factory):
        data = _two_blob_data(np.random.default_rng(1))
        a = EMTrainer(2).fit(data, rng_factory(42))
        b = EMTrainer(2).fit(data, rng_factory(42))
        np.testing.assert_array_equal(a.model.means, b.model.means)
        assert a.n_iter == b.n_iter

    def test_single_component_matches_sample_moments(self, rng):
        data = rng.standard_normal((500, 2)) * 2.0 + 3.0
        result = EMTrainer(1, max_iter=10).fit(data, rng)
        np.testing.assert_allclose(
            result.model.means[0], data.mean(axis=0), atol=1e-6
        )
        np.testing.assert_allclose(
            result.model.covariances[0],
            np.cov(data.T, bias=True),
            atol=1e-4,
        )

    def test_duplicate_points_do_not_crash(self, rng):
        # Degenerate data: covariance collapses; reg_covar must save it.
        data = np.repeat(np.array([[1.0, 2.0], [5.0, 6.0]]), 50, axis=0)
        result = EMTrainer(2, reg_covar=1e-4).fit(data, rng)
        assert isinstance(result.model, GaussianMixture)
        assert np.all(np.isfinite(result.model.covariances))

    def test_fit_gmm_wrapper(self, rng):
        data = _two_blob_data(rng)
        model = fit_gmm(data, 2, rng, max_iter=50)
        assert isinstance(model, GaussianMixture)
        assert model.n_components == 2

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_property_final_model_valid(self, seed):
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((120, 2)) * np.array([3.0, 1.0])
        result = EMTrainer(3, max_iter=30).fit(data, rng)
        model = result.model
        assert model.weights.sum() == pytest.approx(1.0, rel=1e-9)
        assert np.all(model.weights >= 0)
        assert np.all(np.isfinite(model.means))
        # Covariances remain positive-definite.
        for cov in model.covariances:
            eigenvalues = np.linalg.eigvalsh(cov)
            assert np.all(eigenvalues > 0)


class TestMoreComponentsFitBetter:
    def test_likelihood_improves_with_k(self, rng):
        data = _two_blob_data(rng)
        one = EMTrainer(1).fit(data, np.random.default_rng(0))
        two = EMTrainer(2).fit(data, np.random.default_rng(0))
        assert two.log_likelihood > one.log_likelihood


class TestZeroMassComponent:
    def test_m_step_dead_component_stays_positive_definite(self):
        """A component with zero responsibility mass must degrade to
        the regularized zero covariance, not a -mean*mean^T artifact
        -- even on data far from the origin."""
        rng = np.random.default_rng(0)
        points = rng.normal(1000.0, 1.0, size=(50, 2))
        responsibilities = np.zeros((50, 3))
        responsibilities[:25, 0] = 1.0
        responsibilities[25:, 1] = 1.0  # component 2 gets no mass
        trainer = EMTrainer(3, reg_covar=1e-6)
        moments = trainer._moment_features(points)

        def exact_covs(suspects, suspect_means, suspect_nk):
            covs = [
                (responsibilities[:, j, None] * (points - mean)).T
                @ (points - mean)
                for j, mean in zip(suspects, suspect_means)
            ]
            return np.reshape(covs, (-1, 2, 2)) / suspect_nk[:, None, None]

        weights, means, covariances = trainer._stats_to_params(
            responsibilities.sum(axis=0),
            responsibilities.T @ points,
            responsibilities.T @ moments[1],
            points.shape[0],
            moments,
            exact_covs,
        )
        np.testing.assert_allclose(
            covariances[2], 1e-6 * np.eye(2), atol=1e-12
        )
        for cov in covariances:
            assert np.all(np.linalg.eigvalsh(cov) > 0)

    def test_fit_on_extreme_raw_scale_data(self):
        """Tight far-from-origin clusters (variance ~1e-8 at offset
        ~1e8) must not crash EM: the shifted-moment covariance would
        lose the variance to cancellation without the guard."""
        rng = np.random.default_rng(0)
        points = np.concatenate(
            [
                rng.normal(1e8, 1e-4, size=(500, 2)),
                rng.normal(0.0, 1.0, size=(500, 2)),
            ]
        )
        result = EMTrainer(2, max_iter=20).fit(points, rng)
        for cov in result.model.covariances:
            assert np.all(np.linalg.eigvalsh(cov) > 0)
