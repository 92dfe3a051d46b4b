"""Tests for the shared staged pipeline core.

The pipeline is the single implementation of the paper's
prepare/score/simulate/price loop; these tests pin its stage
contracts: the Simulate stage is bit-identical to the scalar
reference simulator, resumable replays match a single shot, and
chunked feature stamping matches a whole-stream pass.
"""

import numpy as np
import pytest

from repro.cache.setassoc import INVALID, SetAssociativeCache, simulate
from repro.core.config import GmmEngineConfig, IcgmmConfig
from repro.core.pipeline import StagedPipeline, StageProfiler
from repro.core.policy import build_policy
from repro.traces.preprocess import transform_timestamps


@pytest.fixture(scope="module")
def pipeline():
    config = IcgmmConfig(
        trace_length=20_000,
        gmm=GmmEngineConfig(n_components=8, max_train_samples=4_000),
    )
    return StagedPipeline(config)


@pytest.fixture(scope="module")
def prepared(pipeline):
    return pipeline.prepare("memtier")


class TestPrepareStage:
    def test_prepared_shapes_align(self, prepared):
        n = len(prepared)
        assert prepared.page_indices.shape == (n,)
        assert prepared.is_write.shape == (n,)
        assert prepared.scores.shape == (n,)
        assert prepared.page_frequency_scores.shape == (n,)


class TestScoreStage:
    def test_strategy_streams(self, pipeline, prepared):
        """Each strategy's (scores, fill_scores) pair."""
        request = prepared.scores
        page = prepared.page_frequency_scores
        expected = {
            "lru": (None, None),
            "gmm-caching": (request, None),
            "gmm-eviction": (page, None),
            "gmm-caching-eviction": (request, page),
        }
        for strategy, streams in expected.items():
            got = pipeline.strategy_scores(prepared, strategy)
            assert len(got) == 2
            for stream, want in zip(got, streams, strict=True):
                assert stream is want, strategy

    def test_combined_run_fills_page_scores(self, pipeline, prepared):
        """``run_strategy`` admits the combined strategy on request
        scores and stores every filled block's marginal page score:
        it equals a direct replay of those two streams, and each
        resident block's metadata is its page's marginal."""
        pipeline = StagedPipeline(pipeline.config)
        pipeline.profiler = StageProfiler()
        outcome = pipeline.run_strategy(prepared, "gmm-caching-eviction")
        assert pipeline.profiler.calls == {
            "score": 1,
            "simulate": 1,
            "price": 1,
        }

        cache = SetAssociativeCache(pipeline.config.geometry)
        stats = simulate(
            cache,
            build_policy(
                "gmm-caching-eviction",
                prepared.engine.admission_threshold,
            ),
            prepared.page_indices,
            prepared.is_write,
            scores=prepared.scores,
            warmup_fraction=pipeline.config.warmup_fraction,
            fill_scores=prepared.page_frequency_scores,
        )
        assert stats == outcome.stats
        marginal = prepared.page_score_map()
        resident = cache.tags != INVALID
        assert resident.any()
        for page, meta in zip(
            cache.tags[resident].tolist(),
            cache.meta[resident].tolist(),
            strict=True,
        ):
            assert meta == marginal[page]

    def test_chunk_features_match_whole_stream(self, pipeline):
        config = pipeline.config
        pages = np.arange(500, dtype=np.int64) % 37
        whole = pipeline.chunk_features(pages, 0)
        parts = np.vstack(
            [
                pipeline.chunk_features(pages[start : start + 128], start)
                for start in range(0, 500, 128)
            ]
        )
        assert np.array_equal(whole, parts)
        reference = transform_timestamps(
            500,
            config.len_window,
            config.len_access_shot,
            config.timestamp_mode,
        )
        assert np.array_equal(whole[:, 1], reference.astype(np.float64))


class TestSimulateStage:
    def test_dispatch_paths_bit_identical(self, pipeline, prepared):
        """The Simulate stage matches the scalar reference oracle."""
        threshold = prepared.engine.admission_threshold
        scores, fills = pipeline.strategy_scores(prepared, "gmm-caching")
        cache_a = SetAssociativeCache(pipeline.config.geometry)
        cache_b = SetAssociativeCache(pipeline.config.geometry)
        stats_a = pipeline.simulate(
            cache_a,
            build_policy("gmm-caching", threshold),
            prepared.page_indices,
            prepared.is_write,
            scores=scores,
            fill_scores=fills,
        )
        stats_b = simulate(
            cache_b,
            build_policy("gmm-caching", threshold),
            prepared.page_indices,
            prepared.is_write,
            scores=scores,
            fill_scores=fills,
        )
        assert stats_a == stats_b
        assert np.array_equal(cache_a.tags, cache_b.tags)
        assert np.array_equal(cache_a.meta, cache_b.meta)

    def test_resumable_offsets_match_single_shot(self, pipeline, prepared):
        single_cache = SetAssociativeCache(pipeline.config.geometry)
        single = pipeline.simulate(
            single_cache,
            build_policy("lru"),
            prepared.page_indices,
            prepared.is_write,
        )
        chunked_cache = SetAssociativeCache(pipeline.config.geometry)
        policy = build_policy("lru")
        total = None
        n = len(prepared)
        for start in range(0, n, 4096):
            stop = min(start + 4096, n)
            part = pipeline.simulate(
                chunked_cache,
                policy,
                prepared.page_indices[start:stop],
                prepared.is_write[start:stop],
                index_offset=start,
            )
            total = part if total is None else total.merge(part)
        assert total == single
        assert np.array_equal(single_cache.tags, chunked_cache.tags)


class TestPriceStage:
    def test_price_matches_latency_model(self, pipeline, prepared):
        outcome = pipeline.run_strategy(prepared, "lru")
        assert outcome.strategy == "lru"
        assert outcome.average_time_us == pytest.approx(
            pipeline.latency_model.average_access_time_us(outcome.stats)
        )
