"""Integration tests: the end-to-end ICGMM pipeline.

These run the real pipeline on shortened traces with a small GMM so
the whole module stays fast; the full-scale numbers live in the
benchmark harness.
"""

import numpy as np
import pytest

from repro.core.config import GmmEngineConfig, IcgmmConfig
from repro.core.experiment import run_suite
from repro.core.pipeline import StagedPipeline


def _fast_config(**overrides):
    overrides.setdefault("trace_length", 60_000)
    overrides.setdefault(
        "gmm",
        GmmEngineConfig(
            n_components=8, max_iter=15, max_train_samples=8_000
        ),
    )
    return IcgmmConfig(**overrides)


@pytest.fixture(scope="module")
def prepared_memtier():
    pipeline = StagedPipeline(_fast_config())
    return pipeline, pipeline.prepare("memtier")


class TestPrepare:
    def test_prepared_shapes_align(self, prepared_memtier):
        _, prepared = prepared_memtier
        n = len(prepared)
        assert prepared.page_indices.shape == (n,)
        assert prepared.is_write.shape == (n,)
        assert prepared.scores.shape == (n,)
        assert prepared.page_frequency_scores.shape == (n,)

    def test_trim_applied(self, prepared_memtier):
        # 60k trace -> 20%/10% trim leaves 42k requests.
        _, prepared = prepared_memtier
        assert len(prepared) == 42_000

    def test_page_score_map_consistent(self, prepared_memtier):
        _, prepared = prepared_memtier
        mapping = prepared.page_score_map()
        for i in range(0, len(prepared), 5000):
            page = int(prepared.page_indices[i])
            assert mapping[page] == pytest.approx(
                float(prepared.page_frequency_scores[i])
            )

    def test_accepts_external_trace(self):
        pipeline = StagedPipeline(_fast_config())
        rng = np.random.default_rng(0)
        trace = pipeline.generate_trace("heap", rng)
        prepared = pipeline.prepare("heap", trace=trace)
        assert len(prepared) > 0


class TestRunStrategy:
    def test_all_strategies_produce_outcomes(self, prepared_memtier):
        pipeline, prepared = prepared_memtier
        for strategy in (
            "lru",
            "gmm-caching",
            "gmm-eviction",
            "gmm-caching-eviction",
        ):
            outcome = pipeline.run_strategy(prepared, strategy)
            assert outcome.strategy == strategy
            assert outcome.stats.accesses > 0
            assert outcome.average_time_us > 0

    def test_only_admission_strategies_bypass(self, prepared_memtier):
        pipeline, prepared = prepared_memtier
        lru = pipeline.run_strategy(prepared, "lru")
        eviction = pipeline.run_strategy(prepared, "gmm-eviction")
        caching = pipeline.run_strategy(prepared, "gmm-caching")
        assert lru.stats.bypasses == 0
        assert eviction.stats.bypasses == 0
        assert caching.stats.bypasses >= 0


class TestRunBenchmark:
    def test_full_benchmark(self):
        pipeline = StagedPipeline(_fast_config())
        result = pipeline.run_benchmark("stream")
        assert set(result.outcomes) == {
            "lru",
            "gmm-caching",
            "gmm-eviction",
            "gmm-caching-eviction",
        }
        # The headline claim, on the most LRU-hostile workload: the
        # best GMM strategy beats the LRU baseline.
        assert result.miss_reduction_points > 0
        assert result.time_reduction_percent > 0

    def test_benchmark_deterministic(self):
        a = StagedPipeline(_fast_config()).run_benchmark("heap")
        b = StagedPipeline(_fast_config()).run_benchmark("heap")
        assert (
            a.lru.stats.as_dict() == b.lru.stats.as_dict()
        )
        assert (
            a.best_gmm.average_time_us == b.best_gmm.average_time_us
        )

    def test_strategies_subset(self):
        pipeline = StagedPipeline(_fast_config())
        result = pipeline.run_benchmark(
            "memtier", strategies=("lru", "gmm-eviction")
        )
        assert set(result.outcomes) == {"lru", "gmm-eviction"}


class TestRunSuite:
    def test_suite_over_two_workloads(self):
        suite = run_suite(
            workloads=("memtier", "stream"),
            config=_fast_config(),
        )
        assert set(suite.results) == {"memtier", "stream"}
        assert len(suite.fig6_rows()) == 2
        assert len(suite.table1_rows()) == 2
