"""Tests for engine validation and the warm-EM model refresher."""

import numpy as np
import pytest

from repro.core.config import GmmEngineConfig
from repro.core.engine import EM_REG_COVAR, EM_TOL, GmmPolicyEngine
from repro.gmm.em import EMTrainer
from repro.serving import refresh
from repro.serving.refresh import (
    MAX_FIT_SAMPLES,
    ModelRefresher,
    validate_engine,
)
from repro.traces.preprocess import transform_timestamps
from repro.traces.synthetic import ZipfSampler


def _features(base_page, n, rng, n_pages=800):
    sampler = ZipfSampler(
        base_page=base_page, n_pages=n_pages, alpha=1.2
    )
    pages, _ = sampler.sample(n, rng)
    timestamps = transform_timestamps(n, mode="prose")
    return np.column_stack(
        [pages.astype(float), timestamps.astype(float)]
    )


@pytest.fixture
def buffer_chunks(monkeypatch):
    """Set :data:`~repro.serving.refresh.BUFFER_CHUNKS` for this test
    only."""

    def set_chunks(value):
        monkeypatch.setattr(refresh, "BUFFER_CHUNKS", value)

    return set_chunks


def _engine(features, seed=0):
    return GmmPolicyEngine.train(
        features,
        GmmEngineConfig(
            n_components=6, max_iter=15, max_train_samples=6000
        ),
        np.random.default_rng(seed),
    )


class TestValidateEngine:
    def test_accepts_healthy_engine(self):
        rng = np.random.default_rng(7)
        validate_engine(_engine(_features(0, 4000, rng)))

    def test_rejects_non_finite_threshold(self):
        rng = np.random.default_rng(8)
        engine = _engine(_features(0, 4000, rng))
        corrupt = GmmPolicyEngine(
            model=engine.model,
            scaler=engine.scaler,
            admission_threshold=float("nan"),
        )
        with pytest.raises(ValueError, match="admission_threshold"):
            validate_engine(corrupt)

    def test_rejects_non_finite_model_parameters(self):
        rng = np.random.default_rng(9)
        engine = _engine(_features(0, 4000, rng))
        engine.model._weights[0] = np.nan  # accessor returns a copy
        with pytest.raises(ValueError, match="weights"):
            validate_engine(engine)


class TestModelRefresher:
    def test_buffer_is_bounded(self, buffer_chunks):
        buffer_chunks(3)
        refresher = ModelRefresher()
        rng = np.random.default_rng(1)
        for _ in range(10):
            refresher.ingest(_features(0, 500, rng))
        assert refresher.buffered_samples == 3 * 500

    def test_build_requires_data(self):
        refresher = ModelRefresher()
        rng = np.random.default_rng(2)
        engine = _engine(_features(0, 4000, rng))
        with pytest.raises(ValueError, match="buffered"):
            refresher.build(engine)

    def test_refresh_adapts_to_drifted_traffic(self):
        """Folding post-drift chunks in must raise the new traffic's
        likelihood well above the frozen engine's."""
        rng = np.random.default_rng(3)
        pre = _features(0, 12_000, rng)
        post = _features(5_000, 12_000, rng)
        engine = _engine(pre)
        refresher = ModelRefresher()
        for start in range(0, 12_000, 2_000):
            refresher.ingest(post[start : start + 2_000])
        refreshed = refresher.build(engine)
        assert refresher.refreshes_built == 1
        # Shared scaler: scores stay in one comparable space.
        assert refreshed.scaler is engine.scaler
        holdout = engine.scaler.transform(_features(5_000, 4_000, rng))
        frozen_ll = float(
            np.mean(engine.model.log_score_samples(holdout))
        )
        refreshed_ll = float(
            np.mean(refreshed.model.log_score_samples(holdout))
        )
        assert refreshed_ll > frozen_ll + 1.0

    def test_threshold_recut_at_quantile(self):
        rng = np.random.default_rng(4)
        engine = _engine(_features(0, 8_000, rng))
        refresher = ModelRefresher(threshold_quantile=0.1)
        chunk = _features(0, 4_000, rng)
        refresher.ingest(chunk)
        refreshed = refresher.build(engine)
        scores = refreshed.model.score_samples(
            engine.scaler.transform(chunk)
        )
        below = np.mean(scores < refreshed.admission_threshold)
        assert below == pytest.approx(0.1, abs=0.02)

    def test_threshold_is_quantile_of_refreshed_scores(self):
        # The recut uses the kernel the refreshed engine serves with,
        # over the whole buffer (not just the EM fit subsample).
        rng = np.random.default_rng(5)
        engine = _engine(_features(0, 8_000, rng))
        refresher = ModelRefresher(threshold_quantile=0.05)
        for _ in range(2):
            refresher.ingest(_features(300, 5_000, rng))
        buffer = refresher.snapshot_features()
        assert buffer.shape[0] > MAX_FIT_SAMPLES
        refreshed = refresher.build(engine)
        assert refreshed.admission_threshold == float(
            np.quantile(refreshed.score(buffer), 0.05)
        )

    def test_validation(self):
        refresher = ModelRefresher()
        with pytest.raises(ValueError, match=r"\(N, 2\)"):
            refresher.ingest(np.zeros((5, 3)))


class TestSnapshotFeatures:
    """The buffered-traffic copy a refresh build folds."""

    def test_empty_buffer_snapshots_to_none(self):
        assert ModelRefresher().snapshot_features() is None

    def test_snapshot_is_an_immutable_copy(self, buffer_chunks):
        # Later ingests (including ones that evict the snapshotted
        # chunks from the bounded deque) must not change a snapshot
        # already taken.
        buffer_chunks(2)
        refresher = ModelRefresher()
        rng = np.random.default_rng(5)
        first = _features(0, 300, rng)
        refresher.ingest(first)
        snapshot = refresher.snapshot_features()
        np.testing.assert_array_equal(snapshot, first)
        refresher.ingest(_features(9_000, 300, rng))
        refresher.ingest(_features(9_000, 300, rng))
        np.testing.assert_array_equal(snapshot, first)

    def test_snapshot_concatenates_in_ingest_order(self, buffer_chunks):
        buffer_chunks(4)
        refresher = ModelRefresher()
        rng = np.random.default_rng(6)
        chunks = [_features(0, 200, rng) for _ in range(3)]
        for chunk in chunks:
            refresher.ingest(chunk)
        np.testing.assert_array_equal(
            refresher.snapshot_features(), np.concatenate(chunks)
        )

    def test_build_counts_attempt_before_raising(self):
        rng = np.random.default_rng(7)
        engine = _engine(_features(0, 4_000, rng))
        refresher = ModelRefresher()
        with pytest.raises(ValueError, match="buffered"):
            refresher.build(engine)
        refresher.ingest(np.empty((0, 2)))
        with pytest.raises(ValueError, match="buffered"):
            refresher.build(engine)
        # An empty buffer and an empty chunk both count the attempt,
        # and neither counts a build.
        assert refresher.builds_attempted == 2
        assert refresher.refreshes_built == 0


class TestRefreshQuality:
    """At the simulator-default K = 64, the warm fold recovers what
    the frozen engine loses on drifted traffic."""

    def test_refresh_recovers_lost_holdout_likelihood(self):
        # The frozen engine trains on 24,000 rows of one Zipf region;
        # the refresher buffers 49,152 rows of a region 6,000 pages
        # up, in six chunks.
        rng = np.random.default_rng(0)
        gmm = GmmEngineConfig(n_components=64, max_iter=30)
        engine = GmmPolicyEngine.train(
            _features(0, 24_000, rng, n_pages=2000),
            gmm,
            np.random.default_rng(1),
        )
        drifted = _features(6000, 49_152, rng, n_pages=2000)
        holdout = engine.scaler.transform(
            _features(6000, 8000, rng, n_pages=2000)
        )
        refresher = ModelRefresher()
        for start in range(0, drifted.shape[0], 8192):
            refresher.ingest(drifted[start : start + 8192])
        refreshed = refresher.build(engine)

        # The retrain runs the offline engine's EM from scratch on the
        # even-stride subsample the warm fold fits.
        scaled = engine.scaler.transform(refresher.snapshot_features())
        fit_points = scaled[
            np.linspace(0, scaled.shape[0] - 1, MAX_FIT_SAMPLES).astype(
                np.int64
            )
        ]
        retrained = EMTrainer(
            n_components=64,
            max_iter=gmm.max_iter,
            tol=EM_TOL,
            reg_covar=EM_REG_COVAR,
        ).fit(fit_points, np.random.default_rng(1)).model

        frozen_ll, retrain_ll, warm_ll = (
            float(np.mean(model.log_score_samples(holdout)))
            for model in (engine.model, retrained, refreshed.model)
        )
        lost = retrain_ll - frozen_ll
        assert lost > 0
        assert (warm_ll - frozen_ll) / lost >= 0.9
