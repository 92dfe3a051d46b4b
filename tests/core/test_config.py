"""Tests for system configuration."""

import pytest

from repro.cache.setassoc import CacheGeometry
from repro.core.config import (
    SIMULATION_SCALE,
    STRATEGIES,
    ChaosConfig,
    GmmEngineConfig,
    IcgmmConfig,
)


class TestGmmEngineConfig:
    def test_defaults_valid(self):
        config = GmmEngineConfig()
        assert config.n_components >= 1
        assert 0 <= config.threshold_quantile < 1

    def test_rejects_bad_components(self):
        with pytest.raises(ValueError, match="n_components"):
            GmmEngineConfig(n_components=0)

    def test_rejects_bad_quantile(self):
        with pytest.raises(ValueError, match="threshold_quantile"):
            GmmEngineConfig(threshold_quantile=1.0)

    def test_rejects_too_few_train_samples(self):
        with pytest.raises(ValueError, match="max_train_samples"):
            GmmEngineConfig(n_components=64, max_train_samples=32)


#: The per-tick fault probabilities of :class:`ChaosConfig`.
CHAOS_RATES = (
    "device_fail_rate",
    "link_degrade_rate",
    "shard_stall_rate",
    "refresh_fail_rate",
    "refresh_corrupt_rate",
    "correlated_fail_rate",
    "failslow_rate",
)


class TestChaosConfig:
    @pytest.mark.parametrize("name", CHAOS_RATES)
    def test_rates_are_probabilities(self, name):
        assert getattr(ChaosConfig(**{name: 1.0}), name) == 1.0
        for bad in (-0.01, 1.01):
            with pytest.raises(ValueError, match=name):
                ChaosConfig(**{name: bad})

    @pytest.mark.parametrize(
        "name", ["horizon_chunks", "device_fail_chunks", "link_degrade_chunks"]
    )
    def test_lengths_are_positive(self, name):
        assert getattr(ChaosConfig(**{name: 1}), name) == 1
        with pytest.raises(ValueError, match=name):
            ChaosConfig(**{name: 0})

    def test_demo_arms_three_channels(self):
        demo = ChaosConfig.demo()
        armed = {name for name in CHAOS_RATES if getattr(demo, name) > 0}
        assert armed == {
            "device_fail_rate",
            "link_degrade_rate",
            "refresh_fail_rate",
        }
        demo = ChaosConfig.demo(seed=4, shard_stall_rate=0.1)
        assert (demo.seed, demo.shard_stall_rate) == (4, 0.1)


class TestIcgmmConfig:
    def test_default_is_scaled_profile(self):
        config = IcgmmConfig()
        assert config.workload_scale == SIMULATION_SCALE
        # 64 MB / 32 = 2 MB cache.
        assert config.geometry.capacity_bytes == 2 * 1024 * 1024
        assert config.geometry.associativity == 8
        assert config.timestamp_mode == "prose"

    def test_paper_hardware_profile(self):
        config = IcgmmConfig.paper_hardware()
        assert config.workload_scale == 1.0
        assert config.geometry.capacity_bytes == 64 * 1024 * 1024

    def test_paper_hardware_accepts_overrides(self):
        config = IcgmmConfig.paper_hardware(seed=7)
        assert config.seed == 7
        assert config.workload_scale == 1.0

    def test_scaled_ratios_preserved(self):
        # Footprint-to-cache ratio invariance: cache blocks scale by
        # the same factor as the workload regions.
        scaled = IcgmmConfig()
        paper = IcgmmConfig.paper_hardware()
        ratio = (
            paper.geometry.n_blocks / scaled.geometry.n_blocks
        )
        assert ratio == pytest.approx(1.0 / SIMULATION_SCALE)

    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError, match="workload_scale"):
            IcgmmConfig(workload_scale=0.0)
        with pytest.raises(ValueError, match="train_fraction"):
            IcgmmConfig(train_fraction=0.0)
        with pytest.raises(ValueError, match="warmup_fraction"):
            IcgmmConfig(warmup_fraction=1.0)
        with pytest.raises(ValueError, match="trace_length"):
            IcgmmConfig(trace_length=5)

    def test_strategy_tuple(self):
        assert STRATEGIES == (
            "lru",
            "gmm-caching",
            "gmm-eviction",
            "gmm-caching-eviction",
        )

    def test_geometry_is_customisable(self):
        geometry = CacheGeometry(
            capacity_bytes=1024 * 4096, block_bytes=4096, associativity=4
        )
        config = IcgmmConfig(geometry=geometry)
        assert config.geometry.n_blocks == 1024
