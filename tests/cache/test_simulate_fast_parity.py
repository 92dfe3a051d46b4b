"""Differential tests: the fast simulator against the reference loop.

The contract of :func:`repro.cache.simulate_fast.simulate_fast` is
*bit-identical* output to :func:`repro.cache.setassoc.simulate` --
counters, final cache state, and mirrored policy state -- for every
policy, on every trace.  These tests enforce it with randomized
traces across cache geometries, warm-up settings, score streams, and
chunking parameters (including degenerate chunk sizes that force the
same-set round machinery and the scalar tail through every branch).
"""

import zlib

import numpy as np
import pytest

from repro.cache.policies import (
    BeladyPolicy,
    ClockPolicy,
    CounterRandomPolicy,
    FifoPolicy,
    GmmCachePolicy,
    LfuPolicy,
    LruPolicy,
    RandomPolicy,
    ScoreBasedPolicy,
    SlruPolicy,
    TwoQPolicy,
)
from repro.cache.policies.kernels import kernel_for
from repro.cache.setassoc import (
    CacheGeometry,
    SetAssociativeCache,
    simulate,
)
from repro.cache.simulate_fast import (
    DEFAULT_MIN_ROUND_WIDTH,
    simulate_fast,
)
from repro.core.policy import CombinedIcgmmPolicy

#: (name, factory(pages, universe)) for every policy in the zoo.
POLICY_FACTORIES = [
    ("lru", lambda pages, universe: LruPolicy()),
    ("fifo", lambda pages, universe: FifoPolicy()),
    ("lfu", lambda pages, universe: LfuPolicy()),
    ("lfu-decay", lambda pages, universe: LfuPolicy(decay=0.9)),
    ("clock", lambda pages, universe: ClockPolicy()),
    ("slru", lambda pages, universe: SlruPolicy()),
    ("2q", lambda pages, universe: TwoQPolicy()),
    ("belady", lambda pages, universe: BeladyPolicy(pages)),
    (
        "random",
        lambda pages, universe: RandomPolicy(np.random.default_rng(7)),
    ),
    (
        "counter-random",
        lambda pages, universe: CounterRandomPolicy(seed=11),
    ),
    ("score", lambda pages, universe: ScoreBasedPolicy(threshold=0.1)),
    (
        "gmm-caching",
        lambda pages, universe: GmmCachePolicy(
            threshold=0.2, eviction=False
        ),
    ),
    (
        "gmm-eviction",
        lambda pages, universe: GmmCachePolicy(admission=False),
    ),
    (
        "combined",
        lambda pages, universe: CombinedIcgmmPolicy(
            threshold=0.1,
            page_scores={
                page: (page % 31) / 31.0
                for page in range(0, universe, 3)
            },
        ),
    ),
]

GEOMETRIES = [
    (2, 2),  # tiny: every chunk is one scorching conflict
    (8, 4),
    (64, 8),  # the scaled simulation default shape
    (1, 4),  # single set
    (16, 1),  # direct-mapped
]


def _geometry(n_sets: int, ways: int) -> CacheGeometry:
    return CacheGeometry(
        capacity_bytes=n_sets * ways * 4096,
        block_bytes=4096,
        associativity=ways,
    )


def _trace(seed: int, n: int, universe: int):
    rng = np.random.default_rng(seed)
    pages = rng.integers(0, universe, n)
    is_write = rng.random(n) < 0.3
    scores = rng.standard_normal(n)
    return pages, is_write, scores


def _assert_identical(name, geometry, make, pages, is_write, scores,
                      warmup, **fast_kwargs):
    ref_cache = SetAssociativeCache(geometry)
    fast_cache = SetAssociativeCache(geometry)
    ref_policy = make(pages, int(pages.max()) + 1 if len(pages) else 1)
    fast_policy = make(pages, int(pages.max()) + 1 if len(pages) else 1)
    ref_stats = simulate(
        ref_cache, ref_policy, pages, is_write,
        scores=scores, warmup_fraction=warmup,
    )
    fast_stats = simulate_fast(
        fast_cache, fast_policy, pages, is_write,
        scores=scores, warmup_fraction=warmup, **fast_kwargs,
    )
    assert ref_stats == fast_stats, f"{name}: counters diverge"
    np.testing.assert_array_equal(
        ref_cache.tags, fast_cache.tags, err_msg=f"{name}: tags"
    )
    np.testing.assert_array_equal(
        ref_cache.dirty, fast_cache.dirty, err_msg=f"{name}: dirty"
    )
    np.testing.assert_array_equal(
        ref_cache.meta, fast_cache.meta, err_msg=f"{name}: meta"
    )
    np.testing.assert_array_equal(
        ref_cache.stamp, fast_cache.stamp, err_msg=f"{name}: stamp"
    )
    if isinstance(ref_policy, ClockPolicy):
        assert ref_policy._hands == fast_policy._hands


class TestPolicyParity:
    @pytest.mark.parametrize(
        "name,make", POLICY_FACTORIES, ids=[n for n, _ in POLICY_FACTORIES]
    )
    @pytest.mark.parametrize("n_sets,ways", GEOMETRIES)
    def test_randomized_trace(
        self, name, make, n_sets, ways, vector_rounds
    ):
        # Stable digest (hash() is salted per process, which would
        # make a failing trace unreproducible).
        seed = zlib.crc32(f"{name}/{n_sets}/{ways}".encode())
        pages, is_write, scores = _trace(
            seed=seed,
            n=4000,
            universe=max(8, n_sets * ways * 3),
        )
        # The kernel's own cutoff (list-span kernels resolve a 64-set
        # cache in the tail) and the vector-path one.
        for width in (None, DEFAULT_MIN_ROUND_WIDTH):
            for warmup in (0.0, 0.37):
                _assert_identical(
                    name, _geometry(n_sets, ways), make,
                    pages, is_write, scores, warmup,
                    min_round_width=width,
                )
        if n_sets == 64 and name != "random":
            assert vector_rounds, "vector rounds never engaged"

    @pytest.mark.parametrize(
        "name,make", POLICY_FACTORIES, ids=[n for n, _ in POLICY_FACTORIES]
    )
    def test_degenerate_chunking(self, name, make):
        """Tiny chunks + unit round width force every engine branch."""
        pages, is_write, scores = _trace(seed=99, n=1500, universe=600)
        _assert_identical(
            name, _geometry(32, 4), make,
            pages, is_write, scores, 0.25,
            chunk_size=17, min_round_width=1,
        )

    @pytest.mark.parametrize(
        "name,make", POLICY_FACTORIES, ids=[n for n, _ in POLICY_FACTORIES]
    )
    def test_without_scores(self, name, make):
        """Scores omitted entirely (defaulted to zeros) on both paths."""
        pages, is_write, _ = _trace(seed=5, n=2500, universe=400)
        geometry = _geometry(16, 4)
        ref_cache = SetAssociativeCache(geometry)
        fast_cache = SetAssociativeCache(geometry)
        ref_stats = simulate(
            ref_cache, make(pages, 400), pages, is_write
        )
        fast_stats = simulate_fast(
            fast_cache, make(pages, 400), pages, is_write
        )
        assert ref_stats == fast_stats
        np.testing.assert_array_equal(ref_cache.tags, fast_cache.tags)


class TestEdgeCases:
    def test_empty_trace(self):
        geometry = _geometry(4, 2)
        stats = simulate_fast(
            SetAssociativeCache(geometry),
            LruPolicy(),
            np.array([], dtype=np.int64),
            np.array([], dtype=bool),
        )
        assert stats.accesses == 0

    def test_single_access(self):
        geometry = _geometry(4, 2)
        cache = SetAssociativeCache(geometry)
        stats = simulate_fast(
            cache, LruPolicy(), np.array([3]), np.array([True])
        )
        assert stats.misses == 1
        assert cache.occupancy() == 1

    def test_validation_matches_reference(self):
        geometry = _geometry(4, 2)
        with pytest.raises(ValueError, match="same shape"):
            simulate_fast(
                SetAssociativeCache(geometry),
                LruPolicy(),
                np.array([1, 2]),
                np.array([False]),
            )
        with pytest.raises(ValueError, match="scores"):
            simulate_fast(
                SetAssociativeCache(geometry),
                LruPolicy(),
                np.array([1, 2]),
                np.array([False, False]),
                scores=np.array([0.5]),
            )
        with pytest.raises(ValueError, match="warmup_fraction"):
            simulate_fast(
                SetAssociativeCache(geometry),
                LruPolicy(),
                np.array([1]),
                np.array([False]),
                warmup_fraction=1.0,
            )
        with pytest.raises(ValueError, match="chunk_size"):
            simulate_fast(
                SetAssociativeCache(geometry),
                LruPolicy(),
                np.array([1]),
                np.array([False]),
                chunk_size=0,
            )

    def test_mixed_measured_chunk(self):
        """Warm-up boundary falling inside a chunk counts exactly."""
        pages, is_write, scores = _trace(seed=11, n=3000, universe=300)
        _assert_identical(
            "lru", _geometry(8, 4), lambda p, u: LruPolicy(),
            pages, is_write, scores, 0.5,
            chunk_size=4096,  # single chunk straddles the boundary
        )


class TestKernelRegistry:
    def test_known_policies_have_kernels(self):
        cache = SetAssociativeCache(_geometry(4, 2))
        for policy in (
            LruPolicy(), FifoPolicy(), LfuPolicy(), ClockPolicy(),
            SlruPolicy(), TwoQPolicy(), CounterRandomPolicy(),
            ScoreBasedPolicy(threshold=0.0),
            GmmCachePolicy(threshold=0.0),
            CombinedIcgmmPolicy(threshold=0.0, page_scores={}),
            BeladyPolicy(np.array([1, 2, 3])),
        ):
            assert kernel_for(policy, cache) is not None, policy

    def test_random_policy_has_no_kernel(self):
        """Sequential RNG draws cannot survive reordering."""
        cache = SetAssociativeCache(_geometry(4, 2))
        assert kernel_for(RandomPolicy(), cache) is None

    def test_subclass_with_overridden_hook_falls_back(self):
        class WeirdLru(LruPolicy):
            def select_victim(self, cache, set_index, access_index):
                return 0  # not LRU at all

        cache = SetAssociativeCache(_geometry(4, 2))
        assert kernel_for(WeirdLru(), cache) is None
        # ... and simulate_fast still gets it right via fallback.
        pages, is_write, scores = _trace(seed=3, n=1200, universe=80)
        _assert_identical(
            "weird-lru", _geometry(4, 2),
            lambda p, u: WeirdLru(),
            pages, is_write, scores, 0.0,
        )
