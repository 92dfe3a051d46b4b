"""Tests for strategy selection."""

import pytest

from repro.cache.policies import GmmCachePolicy, LruPolicy
from repro.core.config import STRATEGIES
from repro.core.policy import build_policy, strategy_views


class TestBuildPolicy:
    def test_lru(self):
        assert isinstance(build_policy("lru"), LruPolicy)

    def test_caching_only(self):
        policy = build_policy("gmm-caching", admission_threshold=0.3)
        assert isinstance(policy, GmmCachePolicy)
        assert policy.admission and not policy.eviction
        assert policy.threshold == 0.3

    def test_eviction_only(self):
        policy = build_policy("gmm-eviction")
        assert not policy.admission and policy.eviction

    def test_combined(self):
        policy = build_policy("gmm-caching-eviction", 0.1)
        assert type(policy) is GmmCachePolicy
        assert policy.admission and policy.eviction
        assert policy.threshold == 0.1

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            build_policy("belady")


class TestStrategyViews:
    def test_views_per_strategy(self):
        """Which stream each strategy decides on and which one its
        fills store."""
        assert {s: strategy_views(s) for s in STRATEGIES} == {
            "lru": (None, None),
            "gmm-caching": ("request", None),
            "gmm-eviction": ("page", None),
            "gmm-caching-eviction": ("request", "page"),
        }

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            strategy_views("belady")
