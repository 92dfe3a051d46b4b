"""Tests for the stride prefetcher extension."""

import numpy as np
import pytest

from repro.cache.policies import (
    BeladyPolicy,
    ClockPolicy,
    FifoPolicy,
    GmmCachePolicy,
    LfuPolicy,
    LruPolicy,
    RandomPolicy,
    SlruPolicy,
    TwoQPolicy,
)
from repro.cache.prefetch import (
    PrefetchStats,
    StridePrefetcher,
    simulate_with_prefetch,
)
from repro.cache.setassoc import (
    CacheGeometry,
    SetAssociativeCache,
    simulate,
)


#: Every policy of the zoo, built from the trace (Belady reads it).
POLICY_FACTORIES = {
    "lru": lambda pages: LruPolicy(),
    "fifo": lambda pages: FifoPolicy(),
    "lfu": lambda pages: LfuPolicy(),
    "clock": lambda pages: ClockPolicy(),
    "slru": lambda pages: SlruPolicy(),
    "2q": lambda pages: TwoQPolicy(),
    "random": lambda pages: RandomPolicy(np.random.default_rng(11)),
    "belady": lambda pages: BeladyPolicy(pages),
    "gmm": lambda pages: GmmCachePolicy(threshold=0.4),
    "gmm-evict": lambda pages: GmmCachePolicy(
        admission=False, eviction=True
    ),
}

TRACES = ("sequential", "random", "mixed")


def _cache(ways=4, sets=8):
    return SetAssociativeCache(
        CacheGeometry(
            capacity_bytes=ways * sets * 4096,
            block_bytes=4096,
            associativity=ways,
        )
    )


def _run(pages, prefetcher=None, **kwargs):
    pages = np.asarray(pages)
    writes = np.zeros(len(pages), dtype=bool)
    if prefetcher is None:
        prefetcher = StridePrefetcher()
    return simulate_with_prefetch(
        _cache(), LruPolicy(), prefetcher, pages, writes, **kwargs
    )


def _trace(kind, n=1_200, seed=3):
    rng = np.random.default_rng(seed)
    if kind == "sequential":
        pages = np.arange(n) // 2
    elif kind == "random":
        pages = rng.integers(0, 150, n)
    else:
        sweep = np.arange(n)
        noise = rng.integers(0, 400, n)
        pages = np.where(rng.random(n) < 0.6, sweep, noise)
    is_write = rng.random(n) < 0.3
    scores = rng.random(n)
    return pages.astype(np.int64), is_write, scores


class TestStridePrefetcher:
    def test_validation(self):
        with pytest.raises(ValueError):
            StridePrefetcher(degree=0)
        with pytest.raises(ValueError):
            StridePrefetcher(distance=0)
        with pytest.raises(ValueError):
            StridePrefetcher(table_size=0)

    def test_arms_after_degree_sequential_misses(self):
        prefetcher = StridePrefetcher(degree=2, distance=3)
        assert prefetcher.observe_miss(10) == []
        assert prefetcher.observe_miss(11) == [12, 13, 14]

    def test_random_misses_never_arm(self):
        prefetcher = StridePrefetcher(degree=2)
        rng = np.random.default_rng(0)
        for page in rng.integers(0, 10_000, size=100) * 7:
            assert prefetcher.observe_miss(int(page)) == []

    def test_table_eviction_keeps_size_bounded(self):
        prefetcher = StridePrefetcher(table_size=2)
        for page in (100, 200, 300, 400):
            prefetcher.observe_miss(page)
        assert len(prefetcher._table) <= 2

    def test_interleaved_streams_tracked(self):
        prefetcher = StridePrefetcher(degree=2, distance=1)
        prefetcher.observe_miss(10)
        prefetcher.observe_miss(500)
        assert prefetcher.observe_miss(11) == [12]
        assert prefetcher.observe_miss(501) == [502]


class TestSimulateWithPrefetch:
    def test_sequential_sweep_mostly_hits(self):
        # A long sequential scan: after the detector arms, prefetch
        # converts most demand misses into hits.
        pages = list(range(200))
        stats, prefetch_stats = _run(pages)
        baseline = simulate(
            _cache(),
            LruPolicy(),
            np.array(pages),
            np.zeros(200, dtype=bool),
        )
        assert stats.misses < baseline.misses / 2
        assert prefetch_stats.issued > 0
        assert prefetch_stats.accuracy > 0.8

    def test_random_traffic_unharmed_but_unhelped(self, rng):
        pages = list(rng.integers(0, 2000, size=1000) * 3)
        stats, prefetch_stats = _run(pages)
        baseline = simulate(
            _cache(),
            LruPolicy(),
            np.array(pages),
            np.zeros(1000, dtype=bool),
        )
        # No sequential structure: nothing issued, stats match.
        assert prefetch_stats.issued == 0
        assert stats.misses == baseline.misses

    def test_counters_consistent(self):
        pages = list(range(50)) + [0, 1, 2]
        stats, _ = _run(pages)
        assert stats.accesses == 53
        assert stats.dirty_evictions <= stats.evictions

    def test_demand_refill_of_an_evicted_prefetch_is_not_useful(self):
        """Only a page whose latest fill was a prefetch counts as a
        useful prefetch when hit."""
        # 11 arms the stream and prefetches 12, which 50 evicts
        # unused; 12 then misses, is refilled on demand, and hits.
        pages = np.array([10, 11, 50, 12, 12])
        stats, prefetch_stats = simulate_with_prefetch(
            _cache(ways=2, sets=1),
            LruPolicy(),
            StridePrefetcher(degree=2, distance=1),
            pages,
            np.zeros(len(pages), dtype=bool),
        )
        assert stats.hits == 1
        assert prefetch_stats.issued == 2
        assert prefetch_stats.useful == 0

    def test_accuracy_zero_when_nothing_issued(self):
        assert PrefetchStats().accuracy == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="same shape"):
            simulate_with_prefetch(
                _cache(),
                LruPolicy(),
                StridePrefetcher(),
                np.array([1, 2]),
                np.array([False]),
            )
        with pytest.raises(ValueError, match="warmup_fraction"):
            _run([1, 2], warmup_fraction=1.5)


class TestEveryPolicy:
    @pytest.mark.parametrize("kind", TRACES)
    @pytest.mark.parametrize("policy_key", sorted(POLICY_FACTORIES))
    def test_silent_prefetcher_matches_simulate(self, policy_key, kind):
        """With a prefetcher that never arms, the prefetch loop is the
        reference loop under every policy: bit-identical counters
        (with and without a warm-up cut) and all four cache planes,
        and nothing issued."""
        pages, is_write, scores = _trace(kind)
        make = POLICY_FACTORIES[policy_key]
        for warmup in (0.0, 0.3):
            ref_cache, cache = _cache(), _cache()
            ref_stats = simulate(
                ref_cache, make(pages), pages, is_write,
                scores=scores, warmup_fraction=warmup,
            )
            stats, prefetch_stats = simulate_with_prefetch(
                cache,
                make(pages),
                StridePrefetcher(degree=len(pages) + 1),
                pages,
                is_write,
                scores=scores,
                warmup_fraction=warmup,
            )
            assert stats == ref_stats
            assert ref_stats.evictions > 0
            assert prefetch_stats.issued == 0
            for plane in ("tags", "dirty", "meta", "stamp"):
                np.testing.assert_array_equal(
                    getattr(ref_cache, plane),
                    getattr(cache, plane),
                    err_msg=f"{policy_key}/{kind}: {plane}",
                )
