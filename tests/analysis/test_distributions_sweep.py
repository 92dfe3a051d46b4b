"""Tests for Fig. 2 distribution analysis and ablation sweeps."""

import numpy as np
import pytest

from repro.analysis.distributions import (
    gmm_spatial_fit,
    temporal_information_gain,
    workload_distributions,
)
from repro.analysis.sweep import (
    SweepPoint,
    sweep_n_components,
    sweep_threshold_quantile,
)
from repro.cache.stats import CacheStats
from repro.core.config import GmmEngineConfig, IcgmmConfig
from repro.core.pipeline import StagedPipeline
from repro.core.results import BenchmarkResult, StrategyOutcome
from repro.traces import TracePreprocessor, get_workload


@pytest.fixture(scope="module")
def dlrm_trace():
    rng = np.random.default_rng(7)
    return get_workload("dlrm", scale=1 / 32).generate(40_000, rng)


class TestWorkloadDistributions:
    def test_fig2_panels(self, dlrm_trace):
        dist = workload_distributions("dlrm", dlrm_trace)
        assert dist.workload == "dlrm"
        assert dist.spatial.counts.sum() == len(dlrm_trace)
        assert dist.temporal.counts.sum() == len(dlrm_trace)

    def test_dlrm_multimodal_and_time_varying(self, dlrm_trace):
        # The two Fig. 2 claims, quantified.
        dist = workload_distributions("dlrm", dlrm_trace)
        assert dist.spatial_modality >= 2
        assert dist.temporal_nonuniformity > 0.05


class TestGmmSpatialFit:
    def test_mixture_beats_single_gaussian(self, dlrm_trace):
        fits = gmm_spatial_fit(
            dlrm_trace, component_counts=(1, 8), max_samples=5_000
        )
        # "Spatial distribution can be fitted with different Gaussian
        # functions": more components fit distinctly better.
        assert fits[8] > fits[1] + 0.1


class TestTemporalInformationGain:
    def test_phased_workload_has_positive_gain(self):
        rng = np.random.default_rng(3)
        trace = get_workload("memtier", scale=1 / 32).generate(
            60_000, rng
        )
        features = TracePreprocessor().process(trace).features
        gain = temporal_information_gain(
            features, n_components=8, max_samples=6_000
        )
        # Sec. 2.3: the temporal dimension carries real information
        # (the expiry bursts live in a fixed timestamp band).
        assert gain > 0.0

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match=r"\(N, 2\)"):
            temporal_information_gain(np.zeros((10, 3)))


def _fast_config():
    return IcgmmConfig(
        trace_length=40_000,
        gmm=GmmEngineConfig(
            n_components=8, max_iter=10, max_train_samples=6_000
        ),
    )


class TestSweeps:
    def test_sweep_n_components(self):
        points = sweep_n_components(
            "stream", component_counts=(4, 8), config=_fast_config()
        )
        assert [p.value for p in points] == [4, 8]
        for point in points:
            assert isinstance(point, SweepPoint)
            assert point.lru_miss_percent > 0

    def test_sweep_threshold(self):
        points = sweep_threshold_quantile(
            "stream", quantiles=(0.0, 0.05), config=_fast_config()
        )
        assert [p.value for p in points] == [0.0, 0.05]
        # reduction_points is derived consistently.
        for point in points:
            assert point.reduction_points == pytest.approx(
                point.lru_miss_percent - point.gmm_miss_percent
            )

    def test_sweep_point_reads_each_strategy(self, monkeypatch):
        """LRU, the best GMM strategy and gmm-caching each land in
        their own field."""
        misses = {
            "lru": 40,
            "gmm-caching": 30,
            "gmm-eviction": 10,
            "gmm-caching-eviction": 20,
        }
        result = BenchmarkResult(
            "stream",
            {
                name: StrategyOutcome(
                    name, CacheStats(hits=100 - miss, misses=miss), 0.0
                )
                for name, miss in misses.items()
            },
        )
        monkeypatch.setattr(
            StagedPipeline, "run_benchmark", lambda self, w: result
        )
        (point,) = sweep_threshold_quantile(
            "stream", quantiles=(0.02,), config=_fast_config()
        )
        assert point.lru_miss_percent == 40.0
        assert point.gmm_miss_percent == 10.0
        assert point.caching_miss_percent == 30.0
