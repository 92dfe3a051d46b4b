"""Differential tests: the fast engine on set-skewed traces.

Streams that hammer one or two cache sets with a handful of distinct
pages -- a single set whose working set fits, a single set thrashing
through twice its ways, two-set burst ping-pong, and memtier-style
traffic with hot fraction 0.99 -- or rotate short same-set spans
across 16 sets (set ping-pong) run through
:func:`repro.cache.simulate_fast.simulate_fast`, one-shot and as a
chunked resumable replay, and must match the scalar reference bit
for bit: counters, final cache planes and per-access outcome codes.
"""

import numpy as np
import pytest

from repro.cache.policies import (
    BeladyPolicy,
    ClockPolicy,
    FifoPolicy,
    GmmCachePolicy,
    LfuPolicy,
    LruPolicy,
    ScoreBasedPolicy,
    SlruPolicy,
    TwoQPolicy,
)
from repro.cache.setassoc import CacheGeometry
from repro.core.policy import CombinedIcgmmPolicy

#: Every policy but RandomPolicy, including the ones whose hit
#: updates depend on the order of hits within a set (SLRU promotion,
#: decayed LFU).
POLICY_FACTORIES = [
    ("lru", lambda pages, universe: LruPolicy()),
    ("fifo", lambda pages, universe: FifoPolicy()),
    ("lfu", lambda pages, universe: LfuPolicy()),
    ("clock", lambda pages, universe: ClockPolicy()),
    ("2q", lambda pages, universe: TwoQPolicy()),
    ("belady", lambda pages, universe: BeladyPolicy(pages)),
    (
        "score-update",
        lambda pages, universe: ScoreBasedPolicy(
            threshold=0.1, update_score_on_hit=True
        ),
    ),
    (
        "gmm-caching",
        lambda pages, universe: GmmCachePolicy(
            threshold=0.15, eviction=False
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
                page: (page % 29) / 29.0
                for page in range(0, universe, 2)
            },
        ),
    ),
    ("slru", lambda pages, universe: SlruPolicy()),
    ("lfu-decay", lambda pages, universe: LfuPolicy(decay=0.9)),
]
POLICY_IDS = [n for n, _ in POLICY_FACTORIES]

#: Chunked replay needs a policy that can start mid-trace; Belady's
#: next-use table is built from the whole trace.
RESUMABLE = [p for p in POLICY_FACTORIES if p[0] != "belady"]
RESUMABLE_IDS = [n for n, _ in RESUMABLE]

#: Accesses per stream.
N = 4_000


def _geometry(n_sets: int, ways: int) -> CacheGeometry:
    return CacheGeometry(
        capacity_bytes=n_sets * ways * 4096,
        block_bytes=4096,
        associativity=ways,
    )


def _set_skewed_traces(n_sets: int, ways: int):
    """Streams concentrated on one or two cache sets."""
    rng = np.random.default_rng(31)
    traces = {}
    # One scorching set, working set fits: all hits once warm.
    fitting = max(2, ways - 2)
    traces["single-set-fits"] = (
        rng.integers(0, fitting, N) * n_sets
    ).astype(np.int64)
    # One scorching set, working set overflows: constant conflict
    # misses, every one a victim choice.
    traces["single-set-thrash"] = (
        rng.integers(0, 2 * ways, N) * n_sets
    ).astype(np.int64)
    # Two sets, burst ping-pong (bursts alternate between the sets).
    burst = np.repeat(rng.integers(0, ways, N // 6 + 1), 6)[:N]
    traces["2set-pingpong"] = (
        burst % 2 + (burst // 2) * n_sets
    ).astype(np.int64)
    # memtier-style: hot fraction 0.99 over a handful of keys, with
    # a cold tail that lands in (and occasionally evicts from) the
    # hot sets.
    hot = (rng.integers(0, fitting, N) * n_sets).astype(np.int64)
    cold = rng.integers(0, 40 * n_sets * ways, N).astype(np.int64)
    traces["memtier-hot99"] = np.where(
        rng.random(N) < 0.99, hot, cold
    ).astype(np.int64)
    # Set ping-pong: spans of 12 runs of consecutive distinct tags (3
    # accesses per run, 6 tags) within one set, the spans rotating
    # across 16 sets (all of them on smaller caches).
    reps, tags, run_len = 12, 6, 3
    n_spans = N // (reps * run_len) + 2
    set_of = np.arange(n_spans) % min(16, n_sets)
    tag = rng.integers(0, tags, (n_spans, reps))
    for k in range(1, reps):
        same = tag[:, k] == tag[:, k - 1]
        tag[same, k] = (tag[same, k] + 1) % tags
    span_pages = tag * n_sets + set_of[:, None]
    traces["set-pingpong"] = np.repeat(span_pages.reshape(-1), run_len)[
        :N
    ].astype(np.int64)
    return traces


def _stream(seed: int):
    rng = np.random.default_rng(seed)
    return rng.random(N) < 0.3, rng.standard_normal(N) * 0.4


@pytest.mark.parametrize("name,make", POLICY_FACTORIES, ids=POLICY_IDS)
@pytest.mark.parametrize("n_sets,ways", [(64, 8), (8, 4), (1, 4)])
def test_collapse_bit_identical_on_set_skewed_traces(
    name, make, n_sets, ways, assert_fast_parity
):
    """Every set-skewed stream matches the reference."""
    geometry = _geometry(n_sets, ways)
    is_write, scores = _stream(11)
    for trace_name, pages in _set_skewed_traces(n_sets, ways).items():
        assert_fast_parity(
            geometry, make, pages, is_write, scores, 0.2,
            f"{name}/{trace_name}/{n_sets}x{ways}",
        )


@pytest.mark.parametrize("name,make", POLICY_FACTORIES, ids=POLICY_IDS)
def test_collapse_with_short_spans_forced(
    name, make, assert_fast_parity
):
    """The same streams on 16 sets of 4 ways with a short warm-up:
    short bursts per set, and a measure cut inside the first
    chunk."""
    geometry = _geometry(16, 4)
    is_write, scores = _stream(13)
    for trace_name, pages in _set_skewed_traces(16, 4).items():
        assert_fast_parity(
            geometry, make, pages, is_write, scores, 0.1,
            f"{name}/{trace_name}/16x4",
        )


@pytest.mark.parametrize("name,make", RESUMABLE, ids=RESUMABLE_IDS)
def test_collapse_resumable_chunked_replay(
    name, make, assert_fast_parity
):
    """Chunked replay with ``index_offset`` on 4 sets, an odd chunk
    step so bursts straddle chunk boundaries, matches one reference
    run."""
    geometry = _geometry(4, 4)
    pages = _set_skewed_traces(4, 4)["memtier-hot99"]
    is_write, scores = _stream(7)
    assert_fast_parity(
        geometry, make, pages, is_write, scores, 0.0,
        f"{name}/memtier-hot99/chunked", step=437,
    )


@pytest.mark.parametrize("name,make", RESUMABLE, ids=RESUMABLE_IDS)
def test_short_span_resumable_chunked_replay(
    name, make, assert_fast_parity
):
    """Chunked replay of the two-set ping-pong on 8 sets, bursts
    split across chunk boundaries, matches one reference run."""
    geometry = _geometry(8, 4)
    pages = _set_skewed_traces(8, 4)["2set-pingpong"]
    is_write, scores = _stream(19)
    assert_fast_parity(
        geometry, make, pages, is_write, scores, 0.0,
        f"{name}/2set-pingpong/chunked", step=437,
    )
