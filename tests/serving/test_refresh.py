"""Tests for the engine slot and the warm-EM model refresher."""

import threading

import numpy as np
import pytest

from repro.core.config import GmmEngineConfig
from repro.core.engine import GmmPolicyEngine
from repro.serving.refresh import (
    EngineSlot,
    ModelRefresher,
    StaleSwapError,
    validate_engine,
)
from repro.traces.preprocess import transform_timestamps
from repro.traces.synthetic import ZipfSampler


def _features(base_page, n, rng):
    sampler = ZipfSampler(base_page=base_page, n_pages=800, alpha=1.2)
    pages, _ = sampler.sample(n, rng)
    timestamps = transform_timestamps(n, mode="prose")
    return np.column_stack(
        [pages.astype(float), timestamps.astype(float)]
    )


def _engine(features, seed=0):
    return GmmPolicyEngine.train(
        features,
        GmmEngineConfig(
            n_components=6, max_iter=15, max_train_samples=6000
        ),
        np.random.default_rng(seed),
    )


class TestEngineSlot:
    def test_swap_bumps_generation(self):
        rng = np.random.default_rng(0)
        engine = _engine(_features(0, 4000, rng))
        slot = EngineSlot(engine)
        assert slot.generation == 0
        assert slot.engine is engine
        other = _engine(_features(0, 4000, rng), seed=1)
        assert slot.swap(other) == 1
        assert slot.engine is other
        assert slot.generation == 1

    def test_stale_swap_is_refused(self):
        rng = np.random.default_rng(5)
        slot = EngineSlot(_engine(_features(0, 4000, rng)))
        engine, generation = slot.read()
        newer = _engine(_features(0, 4000, rng), seed=1)
        slot.swap(newer, expected_generation=generation)
        # A second builder that also read generation 0 must not roll
        # the slot back past `newer`.
        stale = _engine(_features(0, 4000, rng), seed=2)
        with pytest.raises(StaleSwapError, match="generation 0"):
            slot.swap(stale, expected_generation=generation)
        assert slot.engine is newer
        assert slot.generation == 1

    def test_concurrent_cas_admits_exactly_one(self):
        rng = np.random.default_rng(6)
        slot = EngineSlot(_engine(_features(0, 4000, rng)))
        candidates = [
            _engine(_features(0, 4000, rng), seed=s) for s in range(8)
        ]
        _, generation = slot.read()
        outcomes = []
        barrier = threading.Barrier(len(candidates))

        def contend(engine):
            barrier.wait()
            try:
                slot.swap(engine, expected_generation=generation)
                outcomes.append("won")
            except StaleSwapError:
                outcomes.append("stale")

        threads = [
            threading.Thread(target=contend, args=(c,))
            for c in candidates
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert outcomes.count("won") == 1
        assert outcomes.count("stale") == len(candidates) - 1
        assert slot.generation == 1
        assert slot.engine in candidates


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
    def test_buffer_is_bounded(self):
        refresher = ModelRefresher(buffer_chunks=3)
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
        refresher = ModelRefresher(buffer_chunks=6)
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

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelRefresher(buffer_chunks=0)
        refresher = ModelRefresher()
        with pytest.raises(ValueError, match=r"\(N, 2\)"):
            refresher.ingest(np.zeros((5, 3)))


class TestSnapshotFeatures:
    """The off-critical-path snapshot contract used by async refresh."""

    def test_empty_buffer_snapshots_to_none(self):
        assert ModelRefresher().snapshot_features() is None

    def test_snapshot_is_an_immutable_copy(self):
        # The worker thread folds over the snapshot while the serving
        # loop keeps ingesting; later ingests (including ones that
        # evict the snapshotted chunks from the bounded deque) must
        # not change what the in-flight build sees.
        refresher = ModelRefresher(buffer_chunks=2)
        rng = np.random.default_rng(5)
        first = _features(0, 300, rng)
        refresher.ingest(first)
        snapshot = refresher.snapshot_features()
        np.testing.assert_array_equal(snapshot, first)
        refresher.ingest(_features(9_000, 300, rng))
        refresher.ingest(_features(9_000, 300, rng))
        np.testing.assert_array_equal(snapshot, first)

    def test_snapshot_concatenates_in_ingest_order(self):
        refresher = ModelRefresher(buffer_chunks=4)
        rng = np.random.default_rng(6)
        chunks = [_features(0, 200, rng) for _ in range(3)]
        for chunk in chunks:
            refresher.ingest(chunk)
        np.testing.assert_array_equal(
            refresher.snapshot_features(), np.concatenate(chunks)
        )

    def test_build_from_counts_attempt_before_raising(self):
        rng = np.random.default_rng(7)
        engine = _engine(_features(0, 4_000, rng))
        refresher = ModelRefresher()
        with pytest.raises(ValueError, match="buffered"):
            refresher.build_from(None, engine)
        with pytest.raises(ValueError, match="buffered"):
            refresher.build_from(np.empty((0, 2)), engine)
        # Both entry points keep the same bookkeeping as an
        # empty-buffer build(): the attempt is counted, no build is.
        assert refresher.builds_attempted == 2
        assert refresher.refreshes_built == 0

    def test_build_equals_build_from_snapshot(self):
        rng = np.random.default_rng(8)
        engine = _engine(_features(0, 6_000, rng))
        chunk = _features(2_500, 3_000, rng)
        via_build = ModelRefresher()
        via_build.ingest(chunk)
        via_snapshot = ModelRefresher()
        via_snapshot.ingest(chunk)
        a = via_build.build(engine)
        b = via_snapshot.build_from(
            via_snapshot.snapshot_features(), engine
        )
        assert a.admission_threshold == b.admission_threshold
        np.testing.assert_array_equal(a.model.weights, b.model.weights)
        np.testing.assert_array_equal(a.model.means, b.model.means)
