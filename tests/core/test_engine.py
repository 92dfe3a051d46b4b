"""Tests for the GMM policy engine (training, scoring, thresholds)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import engine as engine_module
from repro.core.config import GmmEngineConfig
from repro.core.engine import FeatureScaler, GmmPolicyEngine
from repro.gmm import model as model_module
from repro.gmm.model import GaussianMixture
from repro.gmm.quantized import QuantizedGmm


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


def _guarded_engine(rng, k, quantized):
    """An engine over well-conditioned standardised components plus two
    raw-scale ones (means ~1e7), so that raw-scale rows trip the
    scoring kernel's cancellation guard."""
    weights = rng.dirichlet(np.ones(k + 2))
    means = np.concatenate(
        [
            rng.uniform(-2.5, 2.5, size=(k, 2)),
            rng.normal(1e7, 10.0, size=(2, 2)),
        ]
    )
    scales = rng.uniform(0.1, 2.0, size=(k + 2, 2))
    covariances = np.stack([np.diag(s) for s in scales])
    model = GaussianMixture(weights, means, covariances)
    scaler = FeatureScaler(
        mean=np.array([1_000.0, 150.0]), std=np.array([400.0, 90.0])
    )
    return GmmPolicyEngine(
        model=model,
        scaler=scaler,
        admission_threshold=0.0,
        quantized=QuantizedGmm(model) if quantized else None,
    ), scaler


class TestRowIndependence:
    """``score(x)[idx]`` is ``score(x[idx])`` bit for bit.

    The serving chunk scores each distinct (page, timestamp) row once
    and gathers the result back to every access; that is exact only
    because a row's score never depends on which rows share its call
    or its 2,048-row kernel block.
    """

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.sampled_from([1, 8]),
        quantized=st.booleans(),
        kind=st.sampled_from(["subset", "permutation", "duplication"]),
    )
    def test_gather_commutes_with_score(self, seed, k, quantized, kind):
        rng = np.random.default_rng(seed)
        engine, scaler = _guarded_engine(rng, k, quantized)
        block = model_module._SCORE_BLOCK_ROWS
        n = 2 * block + 37
        features = scaler.mean + scaler.std * rng.standard_normal((n, 2))
        raw = rng.choice(n, size=int(rng.integers(1, 40)), replace=False)
        # Raw-scale rows: standardised, they sit next to the raw means.
        features[raw] = (
            scaler.mean
            + scaler.std
            * (
                engine.model.means[k + rng.integers(0, 2, size=raw.size)]
                + rng.standard_normal((raw.size, 2))
            )
        )
        full = engine.score(features)
        if kind == "subset":
            size = int(rng.integers(1, n))
            idx = np.sort(rng.choice(n, size=size, replace=False))
        elif kind == "permutation":
            idx = rng.permutation(n)
        else:
            idx = rng.integers(0, n, size=int(rng.integers(1, 2 * n)))
        np.testing.assert_array_equal(engine.score(features[idx]), full[idx])
        # The padded one-row call and a lone raw-scale row.
        for row in (int(idx[0]), int(raw[0])):
            np.testing.assert_array_equal(
                engine.score(features[row : row + 1]), full[row : row + 1]
            )
