"""Tests for the shared staged pipeline core.

The pipeline is the single implementation of the paper's
prepare/score/simulate/price loop; these tests pin its stage
contracts: the Simulate stage is bit-identical to the scalar
reference simulator, resumable replays match a single shot, and
chunked feature stamping matches a whole-stream pass.
"""

import numpy as np
import pytest

from repro.cache.setassoc import SetAssociativeCache, simulate
from repro.core.config import GmmEngineConfig, IcgmmConfig
from repro.core.pipeline import StagedPipeline, StrategyPlan
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
    def test_strategy_score_views(self, pipeline, prepared):
        assert pipeline.strategy_scores(prepared, "lru") is None
        assert (
            pipeline.strategy_scores(prepared, "gmm-caching")
            is prepared.scores
        )
        assert (
            pipeline.strategy_scores(prepared, "gmm-eviction")
            is prepared.page_frequency_scores
        )
        assert (
            pipeline.strategy_scores(prepared, "gmm-caching-eviction")
            is prepared.scores
        )

    def test_plan_builds_policy_and_scores(self, pipeline, prepared):
        plan = pipeline.plan_strategy(prepared, "gmm-caching-eviction")
        assert isinstance(plan, StrategyPlan)
        assert plan.strategy == "gmm-caching-eviction"
        assert plan.scores is prepared.scores
        # The combined policy carries the marginal page-score map.
        page = int(prepared.page_indices[0])
        expected = prepared.page_score_map()[page]
        assert plan.policy.fill_meta(page, 0.0, 0) == expected

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
        plan = pipeline.plan_strategy(prepared, "gmm-caching")
        cache_a = SetAssociativeCache(pipeline.config.geometry)
        cache_b = SetAssociativeCache(pipeline.config.geometry)
        stats_a = pipeline.simulate(
            cache_a,
            plan.policy,
            prepared.page_indices,
            prepared.is_write,
            scores=plan.scores,
        )
        plan_b = pipeline.plan_strategy(prepared, "gmm-caching")
        stats_b = simulate(
            cache_b,
            plan_b.policy,
            prepared.page_indices,
            prepared.is_write,
            scores=plan_b.scores,
        )
        assert stats_a == stats_b
        assert np.array_equal(cache_a.tags, cache_b.tags)
        assert np.array_equal(cache_a.meta, cache_b.meta)

    def test_resumable_offsets_match_single_shot(self, pipeline, prepared):
        plan = pipeline.plan_strategy(prepared, "lru")
        single_cache = SetAssociativeCache(pipeline.config.geometry)
        single = pipeline.simulate(
            single_cache,
            pipeline.plan_strategy(prepared, "lru").policy,
            prepared.page_indices,
            prepared.is_write,
        )
        chunked_cache = SetAssociativeCache(pipeline.config.geometry)
        total = None
        n = len(prepared)
        for start in range(0, n, 4096):
            stop = min(start + 4096, n)
            part = pipeline.simulate(
                chunked_cache,
                plan.policy,
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
