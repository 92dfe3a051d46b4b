"""Differential tests: the fast simulator against the reference loop.

The contract of :func:`repro.cache.simulate_fast.simulate_fast` is
*bit-identical* output to :func:`repro.cache.setassoc.simulate` --
counters, final cache state, and mirrored policy state -- for every
policy, on every trace.  These tests enforce it with randomized
traces across cache geometries (up to the 2,048-set paper shape),
warm-up settings, score streams and degenerate resumable calls, and
pin which policies run the exact list loop and which run the
reference loop itself.
"""

import zlib

import numpy as np
import pytest

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
    SlruPolicy,
    TwoQPolicy,
)
from repro.cache.policies.kernels import ListSpan, list_span_for
from repro.cache.setassoc import (
    CacheGeometry,
    SetAssociativeCache,
    simulate,
)
from repro.cache.simulate_fast import simulate_fast
from repro.cache.stats import CacheStats
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
    (2, 2),  # tiny: every access a scorching conflict
    (8, 4),
    (64, 8),  # the scaled simulation default shape
    (1, 4),  # single set
    (16, 1),  # direct-mapped
    (256, 8),
    (2048, 8),  # the paper's 64 MB / 4 KB / 8-way shape
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
                      warmup):
    """Both engines from fresh state; returns the reference stats."""
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
        scores=scores, warmup_fraction=warmup,
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
    return ref_stats


class TestPolicyParity:
    @pytest.mark.parametrize(
        "name,make", POLICY_FACTORIES, ids=[n for n, _ in POLICY_FACTORIES]
    )
    @pytest.mark.parametrize("n_sets,ways", GEOMETRIES)
    def test_randomized_trace(self, name, make, n_sets, ways):
        # Stable digest (hash() is salted per process, which would
        # make a failing trace unreproducible).
        seed = zlib.crc32(f"{name}/{n_sets}/{ways}".encode())
        # Three times the capacity in pages and at least 16 accesses
        # per set, so the sets fill and evict on every geometry.
        pages, is_write, scores = _trace(
            seed=seed,
            n=max(4000, 16 * n_sets),
            universe=max(8, n_sets * ways * 3),
        )
        for warmup in (0.0, 0.37):
            stats = _assert_identical(
                name, _geometry(n_sets, ways), make,
                pages, is_write, scores, warmup,
            )
            assert stats.evictions > 0

    @pytest.mark.parametrize(
        "name,make", POLICY_FACTORIES, ids=[n for n, _ in POLICY_FACTORIES]
    )
    def test_degenerate_chunking(self, name, make):
        """Degenerate ``index_offset`` calls -- single accesses, an
        empty call, and 17-access slices that cut the stream at
        arbitrary points -- match one reference run: counters, all
        four planes and outcome codes."""
        pages, is_write, scores = _trace(seed=99, n=1500, universe=600)
        n = len(pages)
        universe = int(pages.max()) + 1
        geometry = _geometry(32, 4)
        ref_cache = SetAssociativeCache(geometry)
        ref_out = np.empty(n, dtype=np.uint8)
        ref_stats = simulate(
            ref_cache, make(pages, universe), pages, is_write,
            scores=scores, outcome=ref_out,
        )
        cuts = [0, 1, 1, 2, 3, *range(20, n - 1, 17), n - 1, n]
        cache = SetAssociativeCache(geometry)
        policy = make(pages, universe)
        out = np.empty(n, dtype=np.uint8)
        total = CacheStats()
        for start, stop in zip(cuts, cuts[1:]):
            total = total.merge(
                simulate_fast(
                    cache, policy,
                    pages[start:stop], is_write[start:stop],
                    scores=scores[start:stop],
                    index_offset=start,
                    outcome=out[start:stop],
                )
            )
        assert total == ref_stats, f"{name}: counters diverge"
        assert ref_stats.evictions > 0
        np.testing.assert_array_equal(ref_out, out)
        for plane in ("tags", "dirty", "meta", "stamp"):
            np.testing.assert_array_equal(
                getattr(ref_cache, plane), getattr(cache, plane),
                err_msg=f"{name}: {plane}",
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

    def test_mixed_measured_chunk(self):
        """Warm-up boundary falling inside a chunk counts exactly."""
        pages, is_write, scores = _trace(seed=11, n=3000, universe=300)
        _assert_identical(
            "lru", _geometry(8, 4), lambda p, u: LruPolicy(),
            pages, is_write, scores, 0.5,
        )


#: Policies that run the exact list loop: all four Fig. 6 strategies.
LIST_SPAN_POLICIES = [
    ("lru", LruPolicy),
    ("score", lambda: ScoreBasedPolicy(threshold=0.3)),
    ("score-caching", lambda: ScoreBasedPolicy(eviction=False)),
    ("score-eviction", lambda: ScoreBasedPolicy(admission=False)),
    (
        "score-update",
        lambda: ScoreBasedPolicy(update_score_on_hit=True),
    ),
    ("gmm", lambda: GmmCachePolicy(threshold=0.3)),
    ("lstm", lambda: LstmCachePolicy(threshold=0.3)),
    ("combined", lambda: CombinedIcgmmPolicy(0.3, {7: 0.5})),
]

#: Policies that run the reference loop itself.
REFERENCE_POLICIES = [
    ("fifo", FifoPolicy),
    ("lfu", LfuPolicy),
    ("clock", ClockPolicy),
    ("slru", SlruPolicy),
    ("2q", TwoQPolicy),
    ("belady", lambda: BeladyPolicy(np.array([1, 2, 3]))),
    ("random", RandomPolicy),
]

#: The classes that declare a ``ListSpan``, with constructor
#: arguments.
DECLARING = [
    (LruPolicy, ()),
    (ScoreBasedPolicy, ()),
    (CombinedIcgmmPolicy, (0.3, {7: 0.5})),
]
HOOKS = ("on_hit", "admit", "fill_meta", "select_victim")


def _overriding(cls, hook):
    """A subclass of ``cls`` that overrides ``hook`` with a wrapper
    doing exactly what the inherited hook does."""
    inherited = getattr(cls, hook)

    def wrapper(self, *args):
        return inherited(self, *args)

    return type(f"{cls.__name__}With{hook}", (cls,), {hook: wrapper})


class TestListSpanRouting:
    @pytest.mark.parametrize(
        "name,make",
        LIST_SPAN_POLICIES,
        ids=[n for n, _ in LIST_SPAN_POLICIES],
    )
    def test_fig6_policies_declare_a_list_span(self, name, make):
        policy = make()
        spec = list_span_for(policy)
        assert isinstance(spec, ListSpan)
        if name == "lru":
            assert spec == ListSpan(False, None, False, None)
            return
        assert spec.evict_meta == policy.eviction
        assert spec.threshold == (
            policy.threshold if policy.admission else None
        )
        assert spec.hit_meta == policy.update_score_on_hit
        if name == "combined":
            assert spec.fill_scores is policy._page_scores
        else:
            assert spec.fill_scores == {}

    @pytest.mark.parametrize(
        "name,make",
        REFERENCE_POLICIES,
        ids=[n for n, _ in REFERENCE_POLICIES],
    )
    def test_other_policies_run_the_reference(self, name, make):
        assert list_span_for(make()) is None

    @pytest.mark.parametrize("hook", HOOKS)
    @pytest.mark.parametrize(
        "cls,args", DECLARING, ids=[c.__name__ for c, _ in DECLARING]
    )
    def test_subclass_overriding_a_hook_runs_the_reference(
        self, cls, args, hook
    ):
        assert list_span_for(cls(*args)) is not None
        assert list_span_for(_overriding(cls, hook)(*args)) is None

    def test_subclass_with_overridden_hook_matches_reference(self):
        class WeirdLru(LruPolicy):
            def select_victim(self, cache, set_index, access_index):
                return 0  # not LRU at all

        pages, is_write, scores = _trace(seed=3, n=1200, universe=80)
        _assert_identical(
            "weird-lru", _geometry(4, 2),
            lambda p, u: WeirdLru(),
            pages, is_write, scores, 0.0,
        )
