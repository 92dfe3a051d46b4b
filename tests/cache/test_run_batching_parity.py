"""Differential tests: per-set run-length batching vs the reference.

The run-length engine of :mod:`repro.cache.simulate_fast` collapses
consecutive same-page accesses into closed-form kernel updates
(``on_hit_runs``) and replays bypassed runs' admission scans
vectorized.  Its contract is the fast path's usual one -- *bit
identical* counters, final cache planes, and per-access outcomes
against the scalar reference -- stressed here with the hot-set-skewed
traces run batching exists for: a single hammered page, a single
scorching set, two-set ping-pong, long geometric runs, and
memtier-style traffic with hot fraction 0.99.
"""

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

#: Every registered-kernel policy (RandomPolicy is scalar-only by
#: design and exercises no batching path).
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
        "counter-random",
        lambda pages, universe: CounterRandomPolicy(seed=11),
    ),
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

N = 24_000


def _geometry(n_sets: int, ways: int) -> CacheGeometry:
    return CacheGeometry(
        capacity_bytes=n_sets * ways * 4096,
        block_bytes=4096,
        associativity=ways,
    )


def _hot_traces(n_sets: int):
    """The hot-set-skewed page streams run batching targets."""
    rng = np.random.default_rng(99)
    traces = {}
    traces["single-page"] = np.zeros(N, dtype=np.int64)
    # One scorching set, a handful of distinct pages (pure conflict,
    # repeat density above the run-batching gate).
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
    # Sparse repeats: density below the gate, so batching must stand
    # down chunk by chunk without changing anything.
    traces["sparse-runs"] = np.where(
        rng.random(N) < 0.05,
        np.repeat(rng.integers(0, 500, N // 2 + 1), 2)[:N],
        rng.integers(0, 5_000, N),
    ).astype(np.int64)
    return traces


def _run_all_three(geometry, make, pages, is_write, scores, warmup,
                   index_offset=0):
    """Reference, unbatched fast, batched fast -- with outcomes.

    The fast runs keep the vector-path cutoff for every kernel, so
    list-span kernels still reach the run machinery under test.
    """
    results = []
    vector = {"min_round_width": DEFAULT_MIN_ROUND_WIDTH}
    for runner, kwargs in (
        (simulate, {}),
        (simulate_fast, {"run_batching": False, **vector}),
        (simulate_fast, {"run_batching": True, **vector}),
    ):
        cache = SetAssociativeCache(geometry)
        policy = make(pages, int(pages.max()) + 1)
        outcome = np.empty(pages.shape[0], dtype=np.uint8)
        stats = runner(
            cache,
            policy,
            pages,
            is_write,
            scores=scores,
            warmup_fraction=warmup,
            index_offset=index_offset,
            outcome=outcome,
            **kwargs,
        )
        results.append((stats, cache, outcome))
    return results


@pytest.mark.parametrize(
    "name,make", POLICY_FACTORIES, ids=[n for n, _ in POLICY_FACTORIES]
)
@pytest.mark.parametrize("n_sets,ways", [(64, 8), (8, 4), (1, 4)])
def test_batched_matches_reference_on_hot_traces(
    name, make, n_sets, ways, vector_rounds
):
    geometry = _geometry(n_sets, ways)
    rng = np.random.default_rng(7)
    for trace_name, pages in _hot_traces(n_sets).items():
        is_write = rng.random(N) < 0.3
        scores = rng.standard_normal(N)
        (ref, ref_cache, ref_out), unbatched, (
            bat,
            bat_cache,
            bat_out,
        ) = _run_all_three(
            geometry, make, pages, is_write, scores, warmup=0.2
        )
        context = f"{name}/{trace_name}/{n_sets}x{ways}"
        assert ref == bat, f"{context}: counters diverge"
        assert ref == unbatched[0], f"{context}: unbatched diverges"
        np.testing.assert_array_equal(
            ref_cache.tags, bat_cache.tags, err_msg=context
        )
        np.testing.assert_array_equal(
            ref_cache.dirty, bat_cache.dirty, err_msg=context
        )
        np.testing.assert_array_equal(
            ref_cache.meta, bat_cache.meta, err_msg=context
        )
        np.testing.assert_array_equal(
            ref_cache.stamp, bat_cache.stamp, err_msg=context
        )
        np.testing.assert_array_equal(
            ref_out, bat_out, err_msg=context
        )
    if n_sets == 64:
        assert vector_rounds, "vector rounds never engaged"


@pytest.mark.parametrize(
    "name,make",
    [p for p in POLICY_FACTORIES if p[0] != "belady"],
    ids=[n for n, _ in POLICY_FACTORIES if n != "belady"],
)
def test_batched_resumable_replay_matches(name, make):
    """Chunked replay with index_offset stays exact under batching
    (runs crossing chunk boundaries split without losing parity)."""
    geometry = _geometry(16, 4)
    pages = _hot_traces(16)["memtier-hot99"]
    rng = np.random.default_rng(3)
    is_write = rng.random(N) < 0.3
    scores = rng.standard_normal(N)

    one_cache = SetAssociativeCache(geometry)
    one_policy = make(pages, int(pages.max()) + 1)
    one = simulate_fast(
        one_cache, one_policy, pages, is_write, scores=scores,
        run_batching=True,
    )

    chunk_cache = SetAssociativeCache(geometry)
    chunk_policy = make(pages, int(pages.max()) + 1)
    total = None
    step = 1_711  # odd step so runs straddle chunk boundaries
    for start in range(0, N, step):
        stop = min(start + step, N)
        stats = simulate_fast(
            chunk_cache,
            chunk_policy,
            pages[start:stop],
            is_write[start:stop],
            scores=scores[start:stop],
            index_offset=start,
            run_batching=True,
        )
        total = stats if total is None else total.merge(stats)
    assert total == one, name
    np.testing.assert_array_equal(one_cache.tags, chunk_cache.tags)
    np.testing.assert_array_equal(one_cache.stamp, chunk_cache.stamp)


def test_decaying_lfu_declines_hit_runs():
    """Float decay has no exact closed form, so its kernel opts out
    of run collapse (and stays exact through the plain path)."""
    geometry = _geometry(8, 4)
    cache = SetAssociativeCache(geometry)
    assert kernel_for(LfuPolicy(decay=0.9), cache).supports_hit_runs is False
    assert kernel_for(LfuPolicy(), cache).supports_hit_runs is True


def test_bypass_runs_replay_admission_exactly():
    """A hammered page scoring around the admission cut exercises the
    bypassed-run scan: refusals, the first admitted fill, then hits."""
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

    (ref, ref_cache, ref_out), _, (bat, bat_cache, bat_out) = (
        _run_all_three(
            geometry, make, pages, is_write, scores, warmup=0.1
        )
    )
    assert ref.bypasses > 0  # the scenario actually triggers
    assert ref == bat
    np.testing.assert_array_equal(ref_out, bat_out)
    np.testing.assert_array_equal(ref_cache.meta, bat_cache.meta)
