"""Tests for strategy selection."""

import pytest

from repro.cache.policies import GmmCachePolicy, LruPolicy
from repro.core.policy import (
    CombinedIcgmmPolicy,
    build_policy,
    strategy_score_view,
    strategy_uses_scores,
)


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

    def test_combined_requires_page_scores(self):
        with pytest.raises(ValueError, match="page_scores"):
            build_policy("gmm-caching-eviction", 0.1)

    def test_combined(self):
        policy = build_policy(
            "gmm-caching-eviction", 0.1, page_scores={5: 0.9}
        )
        assert isinstance(policy, CombinedIcgmmPolicy)
        assert policy.admission and policy.eviction

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            build_policy("belady")


class TestScoreViews:
    def test_lru_needs_no_scores(self):
        assert not strategy_uses_scores("lru")
        assert strategy_score_view("lru") is None

    def test_caching_uses_request_view(self):
        assert strategy_score_view("gmm-caching") == "request"

    def test_eviction_uses_page_view(self):
        assert strategy_score_view("gmm-eviction") == "page"

    def test_combined_uses_request_view(self):
        assert strategy_score_view("gmm-caching-eviction") == "request"


class TestCombinedPolicy:
    def test_fill_meta_prefers_page_score(self):
        policy = CombinedIcgmmPolicy(
            threshold=0.0, page_scores={7: 0.42}
        )
        assert policy.fill_meta(7, 0.9, 0) == 0.42

    def test_fill_meta_falls_back_to_request_score(self):
        policy = CombinedIcgmmPolicy(threshold=0.0, page_scores={})
        assert policy.fill_meta(7, 0.9, 0) == 0.9

    def test_admission_uses_request_score(self):
        policy = CombinedIcgmmPolicy(
            threshold=0.5, page_scores={7: 0.99}
        )
        # The request score (0.1), not the page score (0.99), drives
        # admission.
        assert not policy.admit(7, 0.1, False, 0)
        assert policy.admit(7, 0.6, False, 0)
