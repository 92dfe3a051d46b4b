"""Tests for the k-means initialiser (greedy k-means++ and Lloyd)."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gmm.kmeans import (
    _squared_distances,
    kmeans_fast,
    kmeans_plus_plus_fast,
)


def _three_blobs(rng, n_per=50, spread=0.2):
    centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    points = np.concatenate(
        [c + spread * rng.standard_normal((n_per, 2)) for c in centers]
    )
    rng.shuffle(points)
    return points, centers


class TestKMeansPlusPlusInit:
    def test_returns_requested_count(self, rng):
        points, _ = _three_blobs(rng)
        seeds = kmeans_plus_plus_fast(points, 3, rng)
        assert seeds.shape == (3, 2)

    def test_seeds_are_data_points(self, rng):
        points, _ = _three_blobs(rng)
        seeds = kmeans_plus_plus_fast(points, 4, rng)
        for seed in seeds:
            assert np.any(np.all(np.isclose(points, seed), axis=1))

    def test_duplicate_points_fallback(self, rng):
        points = np.zeros((10, 2))
        seeds = kmeans_plus_plus_fast(points, 3, rng)
        assert seeds.shape == (3, 2)
        np.testing.assert_allclose(seeds, 0.0)

    def test_rejects_too_few_points(self, rng):
        with pytest.raises(ValueError, match="at least"):
            kmeans_plus_plus_fast(np.zeros((2, 2)), 5, rng)

    def test_rejects_zero_clusters(self, rng):
        with pytest.raises(ValueError, match=">= 1"):
            kmeans_plus_plus_fast(np.zeros((5, 2)), 0, rng)


class TestKMeans:
    def test_recovers_separated_blobs(self, rng):
        points, true_centers = _three_blobs(rng)
        result = kmeans_fast(points, 3, rng)
        # Each true center should be close to one found center.
        for center in true_centers:
            distances = np.linalg.norm(result.centers - center, axis=1)
            assert np.min(distances) < 1.0

    def test_labels_match_nearest_center(self, rng):
        points, _ = _three_blobs(rng)
        result = kmeans_fast(points, 3, rng)
        distances = np.linalg.norm(
            points[:, None, :] - result.centers[None, :, :], axis=2
        )
        np.testing.assert_array_equal(
            result.labels, np.argmin(distances, axis=1)
        )

    def test_inertia_decreases_with_more_clusters(self, rng):
        points, _ = _three_blobs(rng)
        few = kmeans_fast(points, 2, np.random.default_rng(7))
        many = kmeans_fast(points, 6, np.random.default_rng(7))
        assert many.inertia <= few.inertia

    def test_deterministic_given_seed(self, rng_factory):
        # Structureless data: k-means++ seeding decides where Lloyd
        # settles, so the seed shows in the centres.
        points = np.random.default_rng(3).random((400, 2))
        a = kmeans_fast(points, 8, rng_factory(11))
        b = kmeans_fast(points, 8, rng_factory(11))
        c = kmeans_fast(points, 8, rng_factory(12))
        np.testing.assert_array_equal(a.centers, b.centers)
        np.testing.assert_array_equal(a.labels, b.labels)
        assert not np.array_equal(a.centers, c.centers)

    def test_all_clusters_populated_even_with_duplicates(self, rng):
        # 5 distinct values, ask for 5 clusters: every cluster should
        # end up with exactly one value even though points repeat.
        base = np.array([[float(i) * 5, 0.0] for i in range(5)])
        points = np.repeat(base, 20, axis=0)
        result = kmeans_fast(points, 5, rng)
        assert len(np.unique(result.labels)) == 5
        assert result.inertia == pytest.approx(0.0, abs=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_property_inertia_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        points = rng.standard_normal((30, 2))
        result = kmeans_fast(points, 4, rng)
        assert result.inertia >= 0.0
        assert result.centers.shape == (4, 2)
        assert len(result.labels) == 30


class TestSquaredDistances:
    def test_in_place_equals_three_term_formula(self):
        """The in-place accumulation rounds exactly as
        ``||x||^2 - 2 x.c + ||c||^2`` evaluated term by term."""
        rng = np.random.default_rng(0)
        for _ in range(300):
            n, k, d = (int(rng.integers(1, hi)) for hi in (120, 24, 6))
            scale = 10.0 ** rng.uniform(-3.0, 6.0)
            points = scale * rng.standard_normal((n, d))
            centers = scale * rng.standard_normal((k, d))
            x_sq = np.sum(points * points, axis=1)[:, None]
            c_sq = np.sum(centers * centers, axis=1)[None, :]
            expected = np.maximum(
                x_sq - 2.0 * (points @ centers.T) + c_sq, 0.0
            )
            got = _squared_distances(points, centers)
            assert np.array_equal(
                got.view(np.uint64), expected.view(np.uint64)
            )

    def test_peak_memory_is_one_distance_matrix(self):
        """At 40,000 x 2 points and 64 centres one ``(N, K)`` float64
        array is 19.5 MiB; the three-term formula held three at once."""
        rng = np.random.default_rng(1)
        points = rng.standard_normal((40_000, 2))
        centers = rng.standard_normal((64, 2))
        one_matrix = points.shape[0] * centers.shape[0] * 8
        tracemalloc.start()
        try:
            _squared_distances(points, centers)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * one_matrix
