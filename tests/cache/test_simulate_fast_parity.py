"""Differential tests: the fast simulator against the reference loop.

The contract of :func:`repro.cache.simulate_fast.simulate_fast` is
*bit-identical* output to :func:`repro.cache.setassoc.simulate` --
counters, final cache state, and mirrored policy state -- for every
policy, on every trace.  These tests enforce it with randomized
traces across cache geometries (up to the 2,048-set paper shape),
warm-up settings, score streams and degenerate resumable calls, on
skewed streams (back-to-back page runs, one or two hammered sets,
short same-set spans rotating across sets) one-shot and as chunked
resumable replays, and pin which policies run the exact list loop
and which run the reference loop itself.  The ``combined`` case
replays a score policy with fill scores apart from its request
scores, as the combined Fig. 6 strategy does.
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
    INVALID,
    CacheGeometry,
    SetAssociativeCache,
    simulate,
)
from repro.cache.simulate_fast import simulate_fast
from repro.cache.stats import CacheStats

#: (name, factory(pages, universe)) for every policy in the zoo.
POLICY_FACTORIES = [
    ("lru", lambda pages, universe: LruPolicy()),
    ("fifo", lambda pages, universe: FifoPolicy()),
    ("lfu", lambda pages, universe: LfuPolicy()),
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
    # Replayed with the fill stream of :func:`_fills`.
    ("combined", lambda pages, universe: GmmCachePolicy(threshold=0.1)),
]


def _fills(name, pages, scores):
    """Per-access fill scores of a :data:`POLICY_FACTORIES` entry, or
    ``None`` (fills store the request score).

    The ``combined`` entry stores ``(page % 31) / 31`` for every third
    page and the request score for the rest.
    """
    if name != "combined":
        return None
    if scores is None:
        scores = np.zeros(len(pages))
    universe = int(pages.max()) + 1 if len(pages) else 1
    page_fills = {
        page: (page % 31) / 31.0 for page in range(0, universe, 3)
    }
    return np.array(
        [
            page_fills.get(page, score)
            for page, score in zip(pages.tolist(), scores.tolist())
        ]
    )

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
    fills = _fills(name, pages, scores)
    ref_stats = simulate(
        ref_cache, ref_policy, pages, is_write,
        scores=scores, warmup_fraction=warmup, fill_scores=fills,
    )
    fast_stats = simulate_fast(
        fast_cache, fast_policy, pages, is_write,
        scores=scores, warmup_fraction=warmup, fill_scores=fills,
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
        fills = _fills(name, pages, scores)
        ref_cache = SetAssociativeCache(geometry)
        ref_out = np.empty(n, dtype=np.uint8)
        ref_stats = simulate(
            ref_cache, make(pages, universe), pages, is_write,
            scores=scores, outcome=ref_out, fill_scores=fills,
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
                    fill_scores=(
                        None if fills is None else fills[start:stop]
                    ),
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
        fills = _fills(name, pages, None)
        geometry = _geometry(16, 4)
        ref_cache = SetAssociativeCache(geometry)
        fast_cache = SetAssociativeCache(geometry)
        ref_stats = simulate(
            ref_cache, make(pages, 400), pages, is_write,
            fill_scores=fills,
        )
        fast_stats = simulate_fast(
            fast_cache, make(pages, 400), pages, is_write,
            fill_scores=fills,
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


RUNNERS = pytest.mark.parametrize(
    "runner", [simulate, simulate_fast], ids=["simulate", "simulate_fast"]
)


class TestFillScores:
    """A fill stream apart from the request scores: fills store it,
    and only a policy evicting by stored score decides on it."""

    @RUNNERS
    def test_wrong_shape_raises(self, runner):
        with pytest.raises(ValueError, match="fill_scores"):
            runner(
                SetAssociativeCache(_geometry(4, 2)),
                GmmCachePolicy(),
                np.array([1, 2]),
                np.array([False, False]),
                scores=np.zeros(2),
                fill_scores=np.zeros(3),
            )

    @RUNNERS
    def test_meta_holds_fills_and_stamp_victims_ignore_them(
        self, runner
    ):
        """Under ``gmm-caching`` (victims by stamp) a replay with
        fills makes every decision of one without: same counters,
        outcome codes, tags, dirty bits and stamps; only ``meta``
        differs, holding each resident page's fill."""
        pages, is_write, scores = _trace(seed=8, n=3000, universe=200)
        fills = pages + 0.5

        def replay(fill_scores):
            cache = SetAssociativeCache(_geometry(8, 4))
            outcome = np.empty(pages.shape[0], dtype=np.uint8)
            stats = runner(
                cache,
                GmmCachePolicy(threshold=0.0, eviction=False),
                pages, is_write,
                scores=scores, outcome=outcome, fill_scores=fill_scores,
            )
            return stats, outcome, cache

        stats, outcome, cache = replay(fills)
        plain_stats, plain_outcome, plain = replay(None)
        assert stats == plain_stats
        assert stats.bypasses > 0 and stats.evictions > 0
        np.testing.assert_array_equal(outcome, plain_outcome)
        for plane in ("tags", "dirty", "stamp"):
            np.testing.assert_array_equal(
                getattr(cache, plane), getattr(plain, plane)
            )
        resident = cache.tags != INVALID
        np.testing.assert_array_equal(
            cache.meta[resident], cache.tags[resident] + 0.5
        )
        assert not np.array_equal(cache.meta, plain.meta)

    @RUNNERS
    def test_lru_stores_no_fill(self, runner):
        pages, is_write, scores = _trace(seed=9, n=500, universe=50)
        cache = SetAssociativeCache(_geometry(4, 2))
        runner(
            cache, LruPolicy(), pages, is_write,
            scores=scores, fill_scores=pages + 0.5,
        )
        assert not cache.meta.any()


#: Accesses per skewed stream.
N_SKEWED = 4_000


def _page_run_streams(n_sets: int) -> dict[str, np.ndarray]:
    """Page streams dominated by back-to-back repeats."""
    n = N_SKEWED
    streams = {}
    rng = np.random.default_rng(99)
    streams["single-page"] = np.zeros(n, dtype=np.int64)
    # One scorching set, a handful of distinct pages.
    streams["single-set"] = (
        rng.integers(0, 4, n) * n_sets
    ).astype(np.int64)
    # Two sets, short repeat bursts ping-ponging between them.
    burst = np.repeat(rng.integers(0, 4, n // 4 + 1), 4)[:n]
    streams["2set-pingpong"] = (
        burst % 2 + (burst // 2) * n_sets
    ).astype(np.int64)
    # memtier-style: hot fraction 0.99 over a handful of keys.
    hot = rng.integers(0, 5, n)
    cold = rng.integers(0, 50_000, n)
    streams["memtier-hot99"] = np.where(
        rng.random(n) < 0.99, hot, cold
    ).astype(np.int64)
    # Geometric run lengths over a mid-size universe.
    reps = rng.geometric(0.3, n)
    vals = rng.integers(0, 3_000, n)
    streams["runs-geometric"] = np.repeat(vals, reps)[
        :n
    ].astype(np.int64)
    # Sparse repeats over a wide universe.
    streams["sparse-runs"] = np.where(
        rng.random(n) < 0.05,
        np.repeat(rng.integers(0, 500, n // 2 + 1), 2)[:n],
        rng.integers(0, 5_000, n),
    ).astype(np.int64)
    return streams


def _set_skewed_streams(n_sets: int, ways: int) -> dict[str, np.ndarray]:
    """Page streams concentrated on one or two cache sets, or on short
    same-set spans rotating across sets."""
    n = N_SKEWED
    streams = {}
    rng = np.random.default_rng(31)
    # One scorching set, working set fits: all hits once warm.
    fitting = max(2, ways - 2)
    streams["single-set-fits"] = (
        rng.integers(0, fitting, n) * n_sets
    ).astype(np.int64)
    # One scorching set, working set overflows: constant conflict
    # misses, every one a victim choice.
    streams["single-set-thrash"] = (
        rng.integers(0, 2 * ways, n) * n_sets
    ).astype(np.int64)
    # Two sets, burst ping-pong (bursts alternate between the sets).
    burst = np.repeat(rng.integers(0, ways, n // 6 + 1), 6)[:n]
    streams["2set-pingpong"] = (
        burst % 2 + (burst // 2) * n_sets
    ).astype(np.int64)
    # memtier-style: hot fraction 0.99 over a handful of keys, with
    # a cold tail that lands in (and occasionally evicts from) the
    # hot sets.
    hot = (rng.integers(0, fitting, n) * n_sets).astype(np.int64)
    cold = rng.integers(0, 40 * n_sets * ways, n).astype(np.int64)
    streams["memtier-hot99"] = np.where(
        rng.random(n) < 0.99, hot, cold
    ).astype(np.int64)
    # Set ping-pong: spans of 12 runs of consecutive distinct tags (3
    # accesses per run, 6 tags) within one set, the spans rotating
    # across 16 sets (all of them on smaller caches).
    reps, tags, run_len = 12, 6, 3
    n_spans = n // (reps * run_len) + 2
    set_of = np.arange(n_spans) % min(16, n_sets)
    tag = rng.integers(0, tags, (n_spans, reps))
    for k in range(1, reps):
        same = tag[:, k] == tag[:, k - 1]
        tag[same, k] = (tag[same, k] + 1) % tags
    span_pages = tag * n_sets + set_of[:, None]
    streams["set-pingpong"] = np.repeat(
        span_pages.reshape(-1), run_len
    )[:n].astype(np.int64)
    return streams


#: Each family of skewed streams: ``builder(n_sets, ways)``.
SKEWED_FAMILIES = {
    "page-runs": lambda n_sets, ways: _page_run_streams(n_sets),
    "set-skewed": _set_skewed_streams,
}

#: ``(n_sets, ways, warmup)`` of each one-shot skewed pass: 16 sets
#: of 4 ways gives short bursts per set and a measure cut inside the
#: first chunk.
SKEWED_SHAPES = [(64, 8, 0.2), (8, 4, 0.2), (1, 4, 0.2), (16, 4, 0.1)]

#: ``(family, n_sets, ways, stream, step)`` of each chunked resumable
#: replay; the odd steps make runs and bursts straddle chunk
#: boundaries.
SKEWED_REPLAYS = [
    ("page-runs", 16, 4, "memtier-hot99", 431),
    ("set-skewed", 4, 4, "memtier-hot99", 437),
    ("set-skewed", 8, 4, "2set-pingpong", 437),
]

#: Chunked replay needs a policy that can start mid-trace; Belady's
#: next-use table is built from the whole trace.
RESUMABLE = [p for p in POLICY_FACTORIES if p[0] != "belady"]


class TestSkewedStreams:
    @pytest.mark.parametrize(
        "name,make", POLICY_FACTORIES, ids=[n for n, _ in POLICY_FACTORIES]
    )
    @pytest.mark.parametrize("family", SKEWED_FAMILIES)
    @pytest.mark.parametrize("n_sets,ways,warmup", SKEWED_SHAPES)
    def test_skewed_streams(
        self, name, make, family, n_sets, ways, warmup,
        assert_fast_parity,
    ):
        """Every stream of the family matches the reference."""
        _, is_write, scores = _trace(seed=n_sets, n=N_SKEWED, universe=1)
        streams = SKEWED_FAMILIES[family](n_sets, ways)
        for stream, pages in streams.items():
            assert_fast_parity(
                _geometry(n_sets, ways), make,
                pages, is_write, scores, warmup,
                f"{name}/{family}/{stream}/{n_sets}x{ways}",
                fill_scores=_fills(name, pages, scores),
            )

    @pytest.mark.parametrize(
        "name,make", RESUMABLE, ids=[n for n, _ in RESUMABLE]
    )
    @pytest.mark.parametrize(
        "family,n_sets,ways,stream,step",
        SKEWED_REPLAYS,
        ids=[f"{f}-{s}-{n}x{w}" for f, n, w, s, _ in SKEWED_REPLAYS],
    )
    def test_skewed_chunked_replay(
        self, name, make, family, n_sets, ways, stream, step,
        assert_fast_parity,
    ):
        """Chunked replay with ``index_offset`` matches one reference
        run."""
        pages = SKEWED_FAMILIES[family](n_sets, ways)[stream]
        _, is_write, scores = _trace(seed=step, n=N_SKEWED, universe=1)
        assert_fast_parity(
            _geometry(n_sets, ways), make,
            pages, is_write, scores, 0.0,
            f"{name}/{family}/{stream}/{n_sets}x{ways}/chunked",
            step=step,
            fill_scores=_fills(name, pages, scores),
        )

    def test_bypass_runs_replay_admission_exactly(
        self, assert_fast_parity
    ):
        """A hammered page scoring around the admission cut: runs
        open with refusals, then the first admitted access fills and
        the rest hit."""
        geometry = _geometry(4, 2)
        n = 6_000
        rng = np.random.default_rng(21)
        # Far more hammered pages than the 8-block cache holds, so
        # runs regularly open with a miss whose admission depends on
        # the score.
        pages = np.repeat(rng.integers(0, 40, n // 8 + 1), 8)[
            :n
        ].astype(np.int64)
        is_write = rng.random(n) < 0.5
        # Scores oscillate around the threshold so runs flip between
        # bypassed and admitted mid-run.
        scores = rng.standard_normal(n) * 0.2

        def make(pages_, universe):
            return GmmCachePolicy(threshold=0.1, eviction=True)

        reference = assert_fast_parity(
            geometry, make, pages, is_write, scores, 0.1, "bypass-runs"
        )
        assert reference[0].bypasses > 0  # the scenario triggers


#: Policies that run the exact list loop: all four Fig. 6 strategies.
LIST_SPAN_POLICIES = [
    ("lru", LruPolicy),
    ("score", lambda: ScoreBasedPolicy(threshold=0.3)),
    ("score-caching", lambda: ScoreBasedPolicy(eviction=False)),
    ("score-eviction", lambda: ScoreBasedPolicy(admission=False)),
    ("gmm", lambda: GmmCachePolicy(threshold=0.3)),
    ("lstm", lambda: LstmCachePolicy(threshold=0.3)),
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
            assert spec == ListSpan(False, None, False)
            return
        assert spec.evict_meta == policy.eviction
        assert spec.threshold == (
            policy.threshold if policy.admission else None
        )
        assert spec.fill_scores is True

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
