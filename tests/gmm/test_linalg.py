"""Unit and property tests for repro.gmm.linalg."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gmm import linalg


def _random_spd_batch(rng, k=4, d=2):
    base = rng.standard_normal((k, d, d))
    return base @ np.swapaxes(base, 1, 2) + d * np.eye(d)


class TestCholeskyBatch:
    def test_reconstructs_input(self, rng):
        covs = _random_spd_batch(rng)
        factors = linalg.cholesky_batch(covs)
        rebuilt = factors @ np.swapaxes(factors, 1, 2)
        np.testing.assert_allclose(rebuilt, covs, rtol=1e-10)

    def test_lower_triangular(self, rng):
        covs = _random_spd_batch(rng, k=3, d=3)
        factors = linalg.cholesky_batch(covs)
        for factor in factors:
            np.testing.assert_allclose(factor, np.tril(factor))

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="K, D, D"):
            linalg.cholesky_batch(np.eye(2))

    def test_rejects_non_pd(self):
        not_pd = np.array([[[1.0, 2.0], [2.0, 1.0]]])  # det < 0
        with pytest.raises(linalg.NotPositiveDefiniteError):
            linalg.cholesky_batch(not_pd)


class TestRegularize:
    def test_adds_to_diagonal_only(self):
        covs = np.zeros((2, 2, 2))
        out = linalg.regularize_covariances(covs, 0.5)
        np.testing.assert_allclose(out[0], 0.5 * np.eye(2))
        np.testing.assert_allclose(out[1], 0.5 * np.eye(2))

    def test_does_not_mutate_input(self):
        covs = np.eye(2)[None, :, :].copy()
        linalg.regularize_covariances(covs, 1.0)
        np.testing.assert_allclose(covs[0], np.eye(2))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            linalg.regularize_covariances(np.eye(2)[None], -1.0)


class TestEnsurePositiveDefinite:
    def test_repairs_singular_matrix(self):
        singular = np.array([[[1.0, 1.0], [1.0, 1.0]]])
        repaired = linalg.ensure_positive_definite(singular, 1e-6)
        linalg.cholesky_batch(repaired)  # should not raise

    def test_symmetrises(self):
        asym = np.array([[[2.0, 0.1], [0.0, 2.0]]])
        repaired = linalg.ensure_positive_definite(asym)
        np.testing.assert_allclose(repaired[0], repaired[0].T)

    def test_leaves_good_matrices_nearly_unchanged(self, rng):
        covs = _random_spd_batch(rng)
        repaired = linalg.ensure_positive_definite(covs, 1e-9)
        np.testing.assert_allclose(repaired, covs, atol=1e-8)


class TestLogDet:
    def test_matches_slogdet(self, rng):
        covs = _random_spd_batch(rng, k=5)
        factors = linalg.cholesky_batch(covs)
        expected = np.array([np.linalg.slogdet(c)[1] for c in covs])
        np.testing.assert_allclose(
            linalg.log_det_from_cholesky(factors), expected, rtol=1e-10
        )


class TestMahalanobis:
    def test_identity_covariance_is_euclidean(self, rng):
        points = rng.standard_normal((10, 2))
        means = rng.standard_normal((3, 2))
        factors = linalg.cholesky_batch(np.tile(np.eye(2), (3, 1, 1)))
        got = linalg.mahalanobis_squared_batch(points, means, factors)
        expected = np.array(
            [[np.sum((p - m) ** 2) for m in means] for p in points]
        )
        np.testing.assert_allclose(got, expected, rtol=1e-10)

    def test_zero_at_mean(self, rng):
        covs = _random_spd_batch(rng, k=2)
        means = rng.standard_normal((2, 2))
        factors = linalg.cholesky_batch(covs)
        got = linalg.mahalanobis_squared_batch(means, means, factors)
        assert got[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert got[1, 1] == pytest.approx(0.0, abs=1e-12)


class TestLogGaussianDensity:
    def test_matches_direct_formula(self, rng):
        covs = _random_spd_batch(rng, k=3)
        means = rng.standard_normal((3, 2))
        points = rng.standard_normal((20, 2))
        got = linalg.log_gaussian_density(points, means, covs)
        for j in range(3):
            inv = np.linalg.inv(covs[j])
            det = np.linalg.det(covs[j])
            for i, x in enumerate(points):
                diff = x - means[j]
                expected = -0.5 * (
                    2 * np.log(2 * np.pi)
                    + np.log(det)
                    + diff @ inv @ diff
                )
                assert got[i, j] == pytest.approx(expected, rel=1e-9)

    def test_standard_normal_peak(self):
        got = linalg.log_gaussian_density(
            np.zeros((1, 2)), np.zeros((1, 2)), np.eye(2)[None]
        )
        assert got[0, 0] == pytest.approx(-np.log(2 * np.pi))


class TestLogSumExp:
    def test_matches_naive_on_moderate_values(self, rng):
        values = rng.uniform(-10, 10, size=(8, 5))
        naive = np.log(np.sum(np.exp(values), axis=1))
        np.testing.assert_allclose(
            linalg.logsumexp(values, axis=1), naive, rtol=1e-12
        )

    def test_handles_large_magnitudes(self):
        values = np.array([[1000.0, 1000.0]])
        got = linalg.logsumexp(values, axis=1)
        assert got[0] == pytest.approx(1000.0 + np.log(2.0))

    def test_all_minus_inf_row(self):
        values = np.array([[-np.inf, -np.inf]])
        assert linalg.logsumexp(values, axis=1)[0] == -np.inf

    def test_mixed_inf_row(self):
        values = np.array([[-np.inf, 0.0]])
        assert linalg.logsumexp(values, axis=1)[0] == pytest.approx(0.0)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-500, max_value=500),
            min_size=1,
            max_size=20,
        )
    )
    def test_property_shift_invariance(self, row):
        # logsumexp(x + c) == logsumexp(x) + c for any constant c.
        values = np.array([row])
        shifted = linalg.logsumexp(values + 123.0, axis=1)
        base = linalg.logsumexp(values, axis=1)
        np.testing.assert_allclose(shifted, base + 123.0, rtol=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-50, max_value=50),
            min_size=1,
            max_size=20,
        )
    )
    def test_property_bounds(self, row):
        # max(x) <= logsumexp(x) <= max(x) + log(n).
        values = np.array([row])
        result = float(linalg.logsumexp(values, axis=1)[0])
        assert result >= np.max(row) - 1e-9
        assert result <= np.max(row) + np.log(len(row)) + 1e-9


class TestPairwiseLaneSum:
    """The live-lane sum against ``np.sum`` over every lane, dead ones
    stored as 0.0, for every lane count around numpy's pairwise edges
    (sequential below 8, eight partials up to 128, split above)."""

    @pytest.mark.parametrize("rows", [1, 2, 37])
    def test_matches_np_sum_for_every_lane_count(self, rows):
        rng = np.random.default_rng(rows)
        for n_lanes in range(1, 301):
            for share in (0.0, 0.1, 0.5, 0.9, 1.0):
                live = np.flatnonzero(rng.random(n_lanes) < share)
                values = rng.random((rows, n_lanes)) * np.exp(
                    rng.uniform(-700.0, 0.0, size=(rows, n_lanes))
                )
                values[:, rng.random(n_lanes) < 0.05] = 0.0
                stored = np.zeros((rows, n_lanes))
                stored[:, live] = values[:, live]
                lanes = np.ascontiguousarray(values[:, live].T)
                got = linalg.pairwise_lane_sum(
                    lanes, linalg.pairwise_plan(live, n_lanes)
                )
                expected = stored.sum(axis=-1)
                assert np.array_equal(
                    got.view(np.uint64), expected.view(np.uint64)
                ), (n_lanes, live)

    def test_result_is_a_new_array(self):
        lanes = np.ones((1, 4))
        total = linalg.pairwise_lane_sum(
            lanes, linalg.pairwise_plan(np.array([3]), 64)
        )
        total += 1.0
        assert (lanes == 1.0).all()
