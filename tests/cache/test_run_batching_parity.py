"""Differential tests: the fast engine on page-run traces.

Streams that repeat pages back to back -- a single hammered page, a
single scorching set, two-set ping-pong, long geometric runs, and
memtier-style traffic with hot fraction 0.99 -- run through
:func:`repro.cache.simulate_fast.simulate_fast`, one-shot and as
chunked resumable replays, and must match the scalar reference bit
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

#: Every policy but RandomPolicy (``test_simulate_fast_parity.py``
#: covers it).
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
        "score-update",
        lambda pages, universe: ScoreBasedPolicy(
            threshold=0.1, update_score_on_hit=True
        ),
    ),
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

#: Accesses per stream.
N = 4_000


def _geometry(n_sets: int, ways: int) -> CacheGeometry:
    return CacheGeometry(
        capacity_bytes=n_sets * ways * 4096,
        block_bytes=4096,
        associativity=ways,
    )


def _hot_traces(n_sets: int):
    """Page streams dominated by back-to-back repeats."""
    rng = np.random.default_rng(99)
    traces = {}
    traces["single-page"] = np.zeros(N, dtype=np.int64)
    # One scorching set, a handful of distinct pages.
    traces["single-set"] = (
        rng.integers(0, 4, N) * n_sets
    ).astype(np.int64)
    # Two sets, short repeat bursts ping-ponging between them.
    burst = np.repeat(rng.integers(0, 4, N // 4 + 1), 4)[:N]
    traces["2set-pingpong"] = (
        burst % 2 + (burst // 2) * n_sets
    ).astype(np.int64)
    # memtier-style: hot fraction 0.99 over a handful of keys.
    hot = rng.integers(0, 5, N)
    cold = rng.integers(0, 50_000, N)
    traces["memtier-hot99"] = np.where(
        rng.random(N) < 0.99, hot, cold
    ).astype(np.int64)
    # Geometric run lengths over a mid-size universe.
    reps = rng.geometric(0.3, N)
    vals = rng.integers(0, 3_000, N)
    traces["runs-geometric"] = np.repeat(vals, reps)[:N].astype(
        np.int64
    )
    # Sparse repeats over a wide universe.
    traces["sparse-runs"] = np.where(
        rng.random(N) < 0.05,
        np.repeat(rng.integers(0, 500, N // 2 + 1), 2)[:N],
        rng.integers(0, 5_000, N),
    ).astype(np.int64)
    return traces


@pytest.mark.parametrize(
    "name,make", POLICY_FACTORIES, ids=[n for n, _ in POLICY_FACTORIES]
)
@pytest.mark.parametrize("n_sets,ways", [(64, 8), (8, 4), (1, 4)])
def test_batched_matches_reference_on_hot_traces(
    name, make, n_sets, ways, assert_fast_parity
):
    """Every hot stream matches the reference."""
    geometry = _geometry(n_sets, ways)
    rng = np.random.default_rng(7)
    for trace_name, pages in _hot_traces(n_sets).items():
        is_write = rng.random(N) < 0.3
        scores = rng.standard_normal(N)
        assert_fast_parity(
            geometry, make, pages, is_write, scores, 0.2,
            f"{name}/{trace_name}/{n_sets}x{ways}",
        )


@pytest.mark.parametrize(
    "name,make",
    [p for p in POLICY_FACTORIES if p[0] != "belady"],
    ids=[n for n, _ in POLICY_FACTORIES if n != "belady"],
)
def test_batched_resumable_replay_matches(
    name, make, assert_fast_parity
):
    """Chunked replay with ``index_offset`` (an odd step, so page runs
    straddle chunk boundaries) matches one reference run."""
    geometry = _geometry(16, 4)
    pages = _hot_traces(16)["memtier-hot99"]
    rng = np.random.default_rng(3)
    is_write = rng.random(N) < 0.3
    scores = rng.standard_normal(N)
    assert_fast_parity(
        geometry, make, pages, is_write, scores, 0.0,
        f"{name}/memtier-hot99/chunked", step=431,
    )


def test_bypass_runs_replay_admission_exactly(assert_fast_parity):
    """A hammered page scoring around the admission cut: runs open
    with refusals, then the first admitted access fills and the rest
    hit."""
    geometry = _geometry(4, 2)
    n = 6_000
    rng = np.random.default_rng(21)
    # Far more hammered pages than the 8-block cache holds, so runs
    # regularly open with a miss whose admission depends on the score.
    pages = np.repeat(rng.integers(0, 40, n // 8 + 1), 8)[:n].astype(
        np.int64
    )
    is_write = rng.random(n) < 0.5
    # Scores oscillate around the threshold so runs flip between
    # bypassed and admitted mid-run.
    scores = rng.standard_normal(n) * 0.2

    def make(pages_, universe):
        return GmmCachePolicy(threshold=0.1, eviction=True)

    reference = assert_fast_parity(
        geometry, make, pages, is_write, scores, 0.1, "bypass-runs"
    )
    assert reference[0].bypasses > 0  # the scenario actually triggers
