"""Tests for the GMM policy engine (training, scoring, thresholds)."""

import numpy as np
import pytest

from repro.core import engine as engine_module
from repro.core.config import GmmEngineConfig
from repro.core.engine import FeatureScaler, GmmPolicyEngine


def _clustered_features(rng, n=3000):
    """Two hot page clusters plus a cold uniform background."""
    hot_a = np.column_stack(
        [rng.normal(100, 5, n), rng.uniform(0, 300, n)]
    )
    hot_b = np.column_stack(
        [rng.normal(500, 10, n), rng.uniform(0, 300, n)]
    )
    cold = np.column_stack(
        [rng.uniform(0, 2000, n // 10), rng.uniform(0, 300, n // 10)]
    )
    return np.concatenate([hot_a, hot_b, cold])


class TestFeatureScaler:
    def test_standardises(self, rng):
        features = rng.normal([10, 100], [2, 30], size=(5000, 2))
        scaler = FeatureScaler.fit(features)
        scaled = scaler.transform(features)
        np.testing.assert_allclose(scaled.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(scaled.std(axis=0), 1.0, atol=1e-10)

    def test_constant_column_no_blowup(self):
        features = np.column_stack(
            [np.ones(100), np.arange(100, dtype=float)]
        )
        scaler = FeatureScaler.fit(features)
        scaled = scaler.transform(features)
        assert np.all(np.isfinite(scaled))

    def test_rejects_1d(self):
        with pytest.raises(ValueError, match=r"\(N, D\)"):
            FeatureScaler.fit(np.arange(10.0))


class TestTraining:
    def test_train_produces_engine(self, rng):
        features = _clustered_features(rng)
        engine = GmmPolicyEngine.train(
            features, GmmEngineConfig(n_components=8), rng
        )
        assert engine.model.n_components == 8
        assert np.isfinite(engine.admission_threshold)

    def test_hot_scores_above_cold(self, rng):
        features = _clustered_features(rng)
        engine = GmmPolicyEngine.train(
            features, GmmEngineConfig(n_components=8), rng
        )
        hot = engine.score(np.array([[100.0, 150.0]]))[0]
        cold = engine.score(np.array([[1500.0, 150.0]]))[0]
        assert hot > 10 * cold

    def test_threshold_quantile_fraction_bypassed(self, rng):
        features = _clustered_features(rng)
        config = GmmEngineConfig(
            n_components=8, threshold_quantile=0.25
        )
        engine = GmmPolicyEngine.train(features, config, rng)
        scores = engine.score(features)
        below = np.mean(scores < engine.admission_threshold)
        assert below == pytest.approx(0.25, abs=0.05)

    def test_threshold_is_quantile_of_served_scores(self, rng):
        # The cut is taken on exactly the scores the engine serves.
        features = _clustered_features(rng)
        config = GmmEngineConfig(n_components=8, threshold_quantile=0.1)
        engine = GmmPolicyEngine.train(features, config, rng)
        assert engine.admission_threshold == float(
            np.quantile(engine.score(features), 0.1)
        )

    def test_subsampling_respected(self, rng):
        features = _clustered_features(rng)
        config = GmmEngineConfig(
            n_components=4, max_train_samples=500
        )
        engine = GmmPolicyEngine.train(features, config, rng)
        # Training still produces a usable engine on the full stream.
        assert engine.score(features).shape == (features.shape[0],)

    def test_rejects_too_few_points(self, rng):
        with pytest.raises(ValueError, match="not enough"):
            GmmPolicyEngine.train(
                np.zeros((4, 2)),
                GmmEngineConfig(n_components=8),
                rng,
            )

    def test_rejects_bad_shape(self, rng):
        with pytest.raises(ValueError, match=r"\(N, D\)"):
            GmmPolicyEngine.train(
                np.zeros(10), GmmEngineConfig(n_components=2), rng
            )

    def test_deterministic_given_seed(self, rng_factory):
        features = _clustered_features(np.random.default_rng(0))
        a = GmmPolicyEngine.train(
            features, GmmEngineConfig(n_components=4), rng_factory(9)
        )
        b = GmmPolicyEngine.train(
            features, GmmEngineConfig(n_components=4), rng_factory(9)
        )
        np.testing.assert_array_equal(
            a.score(features[:100]), b.score(features[:100])
        )
        assert a.admission_threshold == b.admission_threshold

    def test_quantized_mode(self, rng):
        features = _clustered_features(rng)
        config = GmmEngineConfig(n_components=4, use_quantized=True)
        engine = GmmPolicyEngine.train(features, config, rng)
        assert engine.quantized is not None
        scores = engine.score(features[:50])
        assert np.all(np.isfinite(scores))

    def test_converged_reporting(self, rng):
        features = _clustered_features(rng)
        engine = GmmPolicyEngine.train(
            features, GmmEngineConfig(n_components=4, max_iter=200), rng
        )
        assert engine.converged()


class TestPageScores:
    def test_marginal_is_time_invariant_per_page(self, rng):
        features = _clustered_features(rng)
        engine = GmmPolicyEngine.train(
            features, GmmEngineConfig(n_components=8), rng
        )
        pages = np.array([100, 100, 500, 100, 500])
        marginals = engine.page_scores(pages)
        # Same page -> identical marginal, regardless of position.
        assert marginals[0] == marginals[1] == marginals[3]
        assert marginals[2] == marginals[4]

    def test_marginal_ranks_hot_above_cold(self, rng):
        features = _clustered_features(rng)
        engine = GmmPolicyEngine.train(
            features, GmmEngineConfig(n_components=8), rng
        )
        marginals = engine.page_scores(np.array([100, 1500]))
        assert marginals[0] > marginals[1]

    def test_marginal_shape(self, rng):
        features = _clustered_features(rng)
        engine = GmmPolicyEngine.train(
            features, GmmEngineConfig(n_components=4), rng
        )
        pages = rng.integers(0, 2000, size=200)
        assert engine.page_scores(pages).shape == (200,)

    def test_grid_split_matches_per_page_batches(self, rng, monkeypatch):
        # A buffer of 7 pages' grids plus change: page_scores(all)
        # spans many calls, and must equal the serving memo's way of
        # scoring the same pages a few (or one) at a time, bit for bit.
        features = _clustered_features(rng)
        engine = GmmPolicyEngine.train(
            features, GmmEngineConfig(n_components=8), rng
        )
        monkeypatch.setattr(engine_module, "_GRID_BUFFER_ROWS", 7 * 32 + 5)
        pages = rng.permutation(2000)[:1000]
        together = engine.page_scores(pages)
        per_batch = np.concatenate(
            [
                engine.page_scores(pages[lo : lo + 100])
                for lo in range(0, pages.size, 100)
            ]
        )
        np.testing.assert_array_equal(together, per_batch)
        picks = range(0, pages.size, 37)
        singles = [engine.page_scores(pages[i : i + 1])[0] for i in picks]
        np.testing.assert_array_equal(together[::37], singles)
