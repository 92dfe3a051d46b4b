"""Tests for the replacement-policy zoo."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.policies import (
    BeladyPolicy,
    ClockPolicy,
    FifoPolicy,
    GmmCachePolicy,
    LfuPolicy,
    LruPolicy,
    LstmCachePolicy,
    RandomPolicy,
    ScoreBasedPolicy,
    compute_next_use,
    make_policy,
)
from repro.cache.policies.belady import NEVER
from repro.cache.setassoc import (
    CacheGeometry,
    SetAssociativeCache,
    simulate,
)


def _cache(ways=4, sets=1):
    return SetAssociativeCache(
        CacheGeometry(
            capacity_bytes=ways * sets * 4096,
            block_bytes=4096,
            associativity=ways,
        )
    )


def _simulate(pages, policy, ways=4, sets=1, scores=None):
    pages = np.asarray(pages)
    cache = _cache(ways=ways, sets=sets)
    stats = simulate(
        cache,
        policy,
        pages,
        np.zeros(len(pages), dtype=bool),
        scores=scores,
    )
    return cache, stats


class TestRegistry:
    def test_make_policy_known(self):
        assert isinstance(make_policy("lru"), LruPolicy)
        assert isinstance(make_policy("fifo"), FifoPolicy)
        assert isinstance(make_policy("clock"), ClockPolicy)

    def test_make_policy_kwargs(self):
        policy = make_policy("slru", protected_fraction=0.25)
        assert policy.protected_fraction == 0.25

    def test_make_policy_unknown(self):
        with pytest.raises(ValueError, match="unknown policy"):
            make_policy("oracle")


class TestLru:
    def test_evicts_least_recent(self):
        # 1-set, 2-way: [0, 1], touch 0, insert 2 -> evict 1.
        cache, _ = _simulate([0, 1, 0, 2], LruPolicy(), ways=2)
        assert cache.resident_pages() == {0, 2}

    def test_cyclic_pattern_thrashes(self):
        # Loop of 5 pages through a 4-way set: LRU gets zero hits.
        pages = list(range(5)) * 10
        _, stats = _simulate(pages, LruPolicy(), ways=4)
        assert stats.hits == 0


class TestFifo:
    def test_hit_does_not_refresh(self):
        # [0, 1], touch 0, insert 2: FIFO still evicts 0 (oldest fill).
        cache, _ = _simulate([0, 1, 0, 2], FifoPolicy(), ways=2)
        assert cache.resident_pages() == {1, 2}


class TestRandom:
    def test_deterministic_with_seed(self):
        pages = list(np.random.default_rng(0).integers(0, 20, 200))
        a_cache, a = _simulate(
            pages, RandomPolicy(np.random.default_rng(5)), ways=2
        )
        b_cache, b = _simulate(
            pages, RandomPolicy(np.random.default_rng(5)), ways=2
        )
        assert a.hits == b.hits
        assert a_cache.resident_pages() == b_cache.resident_pages()

    def test_survives_cyclic_pattern(self):
        # Unlike LRU, random eviction keeps some pages across a loop
        # slightly larger than the set.
        pages = list(range(5)) * 40
        _, stats = _simulate(
            pages, RandomPolicy(np.random.default_rng(1)), ways=4
        )
        assert stats.hits > 0


class TestLfu:
    def test_keeps_frequent_block(self):
        # Page 0 hit many times; 1 and 2 compete for the other way.
        pages = [0, 1] + [0] * 8 + [2, 0, 1]
        cache, _ = _simulate(pages, LfuPolicy(), ways=2)
        assert 0 in cache.resident_pages()


class TestClock:
    def test_second_chance(self):
        # 2-way set: fill 0,1 (both referenced). Insert 2: hand clears
        # 0's bit then 1's, wraps, evicts 0.
        cache, _ = _simulate([0, 1, 2], ClockPolicy(), ways=2)
        assert cache.resident_pages() == {1, 2}

    def test_referenced_block_survives(self):
        # [0, 1, 2]: inserting 2 clears both bits, evicts 0 and leaves
        # the hand at way 1 with page 2 freshly referenced (bit set)
        # and page 1 cleared.  Inserting 3 must then give page 2 its
        # second chance and evict page 1.
        cache, _ = _simulate([0, 1, 2, 3], ClockPolicy(), ways=2)
        assert cache.resident_pages() == {2, 3}

    def test_approximates_lru_on_random_traffic(self, rng):
        pages = list(rng.integers(0, 30, size=2000))
        _, clock_stats = _simulate(pages, ClockPolicy(), ways=4, sets=2)
        _, lru_stats = _simulate(pages, LruPolicy(), ways=4, sets=2)
        assert clock_stats.hit_rate == pytest.approx(
            lru_stats.hit_rate, abs=0.1
        )


class TestComputeNextUse:
    def test_simple(self):
        next_use = compute_next_use(np.array([7, 8, 7]))
        assert next_use[0] == 2.0
        assert next_use[1] == NEVER
        assert next_use[2] == NEVER

    def test_empty(self):
        assert compute_next_use(np.array([], dtype=int)).shape == (0,)


class TestBelady:
    def test_evicts_farthest_future(self):
        # 2-way set. Pages 0,1 cached; 2 arrives. Page 0 used next at
        # t=3, page 1 never again -> evict 1.
        pages = np.array([0, 1, 2, 0, 2, 0])
        policy = BeladyPolicy(pages)
        cache, stats = _simulate(list(pages), policy, ways=2)
        # After trace: accesses 3..5 all hit.
        assert stats.hits == 3

    def test_never_worse_than_lru(self, rng):
        # The oracle must dominate LRU on any trace.
        for seed in range(5):
            pages = list(
                np.random.default_rng(seed).integers(0, 40, size=1500)
            )
            _, lru_stats = _simulate(pages, LruPolicy(), ways=4, sets=2)
            _, opt_stats = _simulate(
                pages, BeladyPolicy(np.array(pages)), ways=4, sets=2
            )
            assert opt_stats.hits >= lru_stats.hits


class TestScoreBasedPolicy:
    def test_rejects_no_mechanism(self):
        with pytest.raises(ValueError, match="at least one"):
            ScoreBasedPolicy(admission=False, eviction=False)

    def test_names(self):
        assert GmmCachePolicy().name == "gmm"
        assert LstmCachePolicy().name == "lstm"
        assert isinstance(GmmCachePolicy(), ScoreBasedPolicy)

    def test_hit_keeps_the_fill_score(self):
        """Hits never touch ``meta``: the GMM is skipped on hits
        (Fig. 4)."""
        cache = _cache(ways=2)
        policy = GmmCachePolicy(threshold=0.0)
        simulate(
            cache,
            policy,
            np.array([0, 0]),
            np.array([False, False]),
            scores=np.array([0.2, 0.9]),
        )
        _, way = cache.lookup(0)
        assert cache.meta[0][way] == 0.2

    def test_admission_protects_against_scan(self):
        # Hot page 0 + one-touch scan pages with low scores: with
        # admission the hot page stays resident through the scan.
        scan = list(range(1, 9))
        pages = [0] + scan + [0]
        scores = np.array([1.0] + [0.0] * len(scan) + [1.0])
        policy = GmmCachePolicy(threshold=0.5)
        _, stats = _simulate(
            pages, policy, ways=2, sets=1, scores=scores
        )
        assert stats.hits == 1  # final access to page 0
        assert stats.bypasses == len(scan)

    def test_lru_caches_scan_and_loses_hot_page(self):
        scan = list(range(1, 9))
        pages = [0] + scan + [0]
        _, stats = _simulate(pages, LruPolicy(), ways=2, sets=1)
        assert stats.hits == 0  # page 0 evicted by the scan


class TestPolicyInvariants:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=500))
    def test_property_all_policies_produce_valid_victims(self, seed):
        rng = np.random.default_rng(seed)
        pages = list(rng.integers(0, 50, size=400))
        policies = [
            LruPolicy(),
            FifoPolicy(),
            RandomPolicy(np.random.default_rng(seed)),
            LfuPolicy(),
            ClockPolicy(),
            BeladyPolicy(np.array(pages)),
            GmmCachePolicy(threshold=0.0),
        ]
        for policy in policies:
            cache = _cache(ways=4, sets=2)
            scores = rng.random(len(pages))
            stats = simulate(
                cache,
                policy,
                np.array(pages),
                np.zeros(len(pages), dtype=bool),
                scores=scores,
            )
            assert stats.accesses == len(pages)
            assert cache.occupancy() <= 8
