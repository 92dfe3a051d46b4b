"""Differential tests: same-set run collapse vs the reference.

The set-run engine of :mod:`repro.cache.simulate_fast` collapses a
contiguous same-set span of runs into one round element -- grouped
per-way ``on_hit_runs`` composites plus exact sequential miss
resolution -- for kernels whose hit updates commute across ways
(``supports_set_runs``).  Contract: *bit identical* counters, final
cache planes, and per-access outcome codes against both the scalar
reference and the uncollapsed fast path, on the set-skewed traces the
mechanism exists for; and order-dependent kernels (SLRU, decayed LFU)
must refuse the collapse entirely while staying exact through the
plain path.
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

#: Kernels whose hit updates commute across ways (the collapse set).
COMMUTATIVE_FACTORIES = [
    ("lru", lambda pages, universe: LruPolicy()),
    ("fifo", lambda pages, universe: FifoPolicy()),
    ("lfu", lambda pages, universe: LfuPolicy()),
    ("clock", lambda pages, universe: ClockPolicy()),
    ("2q", lambda pages, universe: TwoQPolicy()),
    ("belady", lambda pages, universe: BeladyPolicy(pages)),
    (
        "counter-random",
        lambda pages, universe: CounterRandomPolicy(seed=17),
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
]

#: Order-dependent kernels: must refuse set runs, stay exact anyway.
ORDER_DEPENDENT_FACTORIES = [
    ("slru", lambda pages, universe: SlruPolicy()),
    ("lfu-decay", lambda pages, universe: LfuPolicy(decay=0.9)),
]

N = 24_000


def _geometry(n_sets: int, ways: int) -> CacheGeometry:
    return CacheGeometry(
        capacity_bytes=n_sets * ways * 4096,
        block_bytes=4096,
        associativity=ways,
    )


def _set_skewed_traces(n_sets: int, ways: int):
    """The set-skewed streams the collapse targets."""
    rng = np.random.default_rng(31)
    traces = {}
    # One scorching set, working set fits: long all-hit spans.
    fitting = max(2, ways - 2)
    traces["single-set-fits"] = (
        rng.integers(0, fitting, N) * n_sets
    ).astype(np.int64)
    # One scorching set, working set overflows: constant conflict
    # misses exercise the sequential miss resolution and the
    # miss-density bail.
    traces["single-set-thrash"] = (
        rng.integers(0, 2 * ways, N) * n_sets
    ).astype(np.int64)
    # Two sets, burst ping-pong (spans alternate between the sets).
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
    return traces


def _run_three(geometry, make, pages, is_write, scores, warmup):
    """Reference, fast without collapse, fast with collapse.

    The fast runs keep the vector-path cutoff for every kernel, so
    list-span kernels still reach the round machinery under test.
    """
    results = []
    vector = {"min_round_width": DEFAULT_MIN_ROUND_WIDTH}
    for runner, kwargs in (
        (simulate, {}),
        (simulate_fast, {"set_run_collapse": False, **vector}),
        (simulate_fast, {"set_run_collapse": True, **vector}),
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
            outcome=outcome,
            **kwargs,
        )
        results.append((stats, cache, outcome))
    return results


def _assert_identical(reference, other, context):
    (ref_stats, ref_cache, ref_out) = reference
    (stats, cache, out) = other
    assert ref_stats == stats, f"{context}: counters diverge"
    np.testing.assert_array_equal(
        ref_cache.tags, cache.tags, err_msg=context
    )
    np.testing.assert_array_equal(
        ref_cache.dirty, cache.dirty, err_msg=context
    )
    np.testing.assert_array_equal(
        ref_cache.meta, cache.meta, err_msg=context
    )
    np.testing.assert_array_equal(
        ref_cache.stamp, cache.stamp, err_msg=context
    )
    np.testing.assert_array_equal(ref_out, out, err_msg=context)


@pytest.mark.parametrize(
    "name,make",
    COMMUTATIVE_FACTORIES + ORDER_DEPENDENT_FACTORIES,
    ids=[n for n, _ in COMMUTATIVE_FACTORIES]
    + [n for n, _ in ORDER_DEPENDENT_FACTORIES],
)
@pytest.mark.parametrize("n_sets,ways", [(64, 8), (8, 4), (1, 4)])
def test_collapse_bit_identical_on_set_skewed_traces(
    name, make, n_sets, ways, vector_rounds
):
    geometry = _geometry(n_sets, ways)
    rng = np.random.default_rng(11)
    for trace_name, pages in _set_skewed_traces(n_sets, ways).items():
        is_write = rng.random(N) < 0.3
        scores = rng.standard_normal(N) * 0.4
        reference, plain, collapsed = _run_three(
            geometry, make, pages, is_write, scores, warmup=0.2
        )
        context = f"{name}/{trace_name}/{n_sets}x{ways}"
        _assert_identical(reference, plain, context + "/plain")
        _assert_identical(reference, collapsed, context + "/collapse")
    if n_sets == 64:
        assert vector_rounds, "vector rounds never engaged"


@pytest.mark.parametrize(
    "name,make",
    COMMUTATIVE_FACTORIES + ORDER_DEPENDENT_FACTORIES,
    ids=[n for n, _ in COMMUTATIVE_FACTORIES]
    + [n for n, _ in ORDER_DEPENDENT_FACTORIES],
)
def test_collapse_with_short_spans_forced(name, make, monkeypatch):
    """Dropping the span-length threshold forces the resolver onto
    every multi-run span (short bursts included), covering the
    expansion/round interleaving that the default threshold skips."""
    import sys

    # The package re-exports simulate_fast the *function* under the
    # module's dotted name, so patch the module object directly.
    module = sys.modules["repro.cache.simulate_fast"]
    monkeypatch.setattr(module, "SET_RUN_MIN_SPAN_REPS", 2)
    geometry = _geometry(16, 4)
    rng = np.random.default_rng(13)
    for trace_name, pages in _set_skewed_traces(16, 4).items():
        is_write = rng.random(N) < 0.3
        scores = rng.standard_normal(N) * 0.4
        reference, _, collapsed = _run_three(
            geometry, make, pages, is_write, scores, warmup=0.1
        )
        _assert_identical(
            reference, collapsed, f"{name}/{trace_name}/forced"
        )


@pytest.mark.parametrize(
    "name,make",
    [p for p in COMMUTATIVE_FACTORIES if p[0] != "belady"],
    ids=[n for n, _ in COMMUTATIVE_FACTORIES if n != "belady"],
)
def test_collapse_resumable_chunked_replay(name, make, vector_rounds):
    """Chunked replay with index_offset stays exact under collapse
    (spans straddling chunk boundaries split without losing parity)."""
    geometry = _geometry(4, 4)
    pages = _set_skewed_traces(4, 4)["memtier-hot99"]
    rng = np.random.default_rng(7)
    is_write = rng.random(N) < 0.3
    scores = rng.standard_normal(N) * 0.4

    one_cache = SetAssociativeCache(geometry)
    one_policy = make(pages, int(pages.max()) + 1)
    one = simulate_fast(
        one_cache, one_policy, pages, is_write, scores=scores,
        set_run_collapse=True,
        min_round_width=DEFAULT_MIN_ROUND_WIDTH,
    )

    chunk_cache = SetAssociativeCache(geometry)
    chunk_policy = make(pages, int(pages.max()) + 1)
    total = None
    step = 1_237  # odd step so spans straddle chunk boundaries
    for start in range(0, N, step):
        stop = min(start + step, N)
        stats = simulate_fast(
            chunk_cache,
            chunk_policy,
            pages[start:stop],
            is_write[start:stop],
            scores=scores[start:stop],
            index_offset=start,
            set_run_collapse=True,
            min_round_width=DEFAULT_MIN_ROUND_WIDTH,
        )
        total = stats if total is None else total.merge(stats)
    assert vector_rounds, "vector rounds never engaged"
    assert total == one, name
    np.testing.assert_array_equal(one_cache.tags, chunk_cache.tags)
    np.testing.assert_array_equal(one_cache.meta, chunk_cache.meta)
    np.testing.assert_array_equal(one_cache.stamp, chunk_cache.stamp)


@pytest.mark.parametrize(
    "name,make",
    [p for p in COMMUTATIVE_FACTORIES if p[0] != "belady"],
    ids=[n for n, _ in COMMUTATIVE_FACTORIES if n != "belady"],
)
def test_short_span_resumable_chunked_replay(name, make, monkeypatch):
    """Chunk-straddling resumable replay through the *cross-set
    short-span* path: with the span threshold forced *up* every
    multi-rep span counts as short, the density gate forced to zero
    makes them all batch through ``_resolve_short_spans``, and an
    odd chunk step splits spans across chunk boundaries.  Totals and
    final planes must stay bit-identical to both the unbatched fast
    path and the scalar reference."""
    import sys

    module = sys.modules["repro.cache.simulate_fast"]
    monkeypatch.setattr(module, "SET_RUN_MIN_SPAN_REPS", 10**9)
    monkeypatch.setattr(module, "SHORT_SPAN_MIN_ROUND_REPS", 0)
    fired = []
    inner = module._resolve_short_spans

    def counting(*args, **kwargs):
        fired.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, "_resolve_short_spans", counting)
    geometry = _geometry(8, 4)
    pages = _set_skewed_traces(8, 4)["2set-pingpong"]
    rng = np.random.default_rng(19)
    is_write = rng.random(N) < 0.3
    scores = rng.standard_normal(N) * 0.4

    reference, plain, _ = _run_three(
        geometry, make, pages, is_write, scores, warmup=0.0
    )

    chunk_cache = SetAssociativeCache(geometry)
    chunk_policy = make(pages, int(pages.max()) + 1)
    chunk_out = np.empty(N, dtype=np.uint8)
    total = None
    step = 1_237  # odd step so spans straddle chunk boundaries
    for start in range(0, N, step):
        stop = min(start + step, N)
        stats = simulate_fast(
            chunk_cache,
            chunk_policy,
            pages[start:stop],
            is_write[start:stop],
            scores=scores[start:stop],
            index_offset=start,
            outcome=chunk_out[start:stop],
            set_run_collapse=True,
            short_span_batching=True,
            min_round_width=DEFAULT_MIN_ROUND_WIDTH,
        )
        total = stats if total is None else total.merge(stats)
    chunked = (total, chunk_cache, chunk_out)
    assert fired, "short-span batcher never engaged"
    _assert_identical(reference, chunked, f"{name}/short-span/ref")
    _assert_identical(plain, chunked, f"{name}/short-span/plain")


@pytest.mark.parametrize("strategy", ["lru", "gmm-caching-eviction"])
def test_short_span_serving_workers_match(strategy, monkeypatch):
    """Parallel plane replay (thread workers share the patched
    module) through the forced short-span path is bit-identical to
    the sequential loop.  Tenant sharding gives four independent
    planes, so the workers really fan out; the list-span cutoff is
    lowered to the vector one so the planes' rounds stay vector."""
    import sys

    from repro.core.config import (
        GmmEngineConfig,
        IcgmmConfig,
        ParallelConfig,
        ServingConfig,
    )
    from repro.core.engine import GmmPolicyEngine
    from repro.serving import IcgmmCacheService

    module = sys.modules["repro.cache.simulate_fast"]
    monkeypatch.setattr(module, "SET_RUN_MIN_SPAN_REPS", 10**9)
    monkeypatch.setattr(module, "SHORT_SPAN_MIN_ROUND_REPS", 0)
    monkeypatch.setattr(
        module, "LIST_SPAN_MIN_ROUND_WIDTH", DEFAULT_MIN_ROUND_WIDTH
    )
    fired = []
    inner = module._resolve_short_spans

    def counting(*args, **kwargs):
        fired.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, "_resolve_short_spans", counting)

    n, train = 40_000, 4_000
    rng = np.random.default_rng(29)
    # Set-skewed bursts so short multi-rep spans actually form.
    burst = np.repeat(rng.integers(0, 3000, n // 5 + 1), 5)[:n]
    pages = burst.astype(np.int64)
    is_write = rng.random(n) < 0.3
    config = IcgmmConfig(
        gmm=GmmEngineConfig(n_components=4, max_train_samples=2_000)
    )
    features = np.column_stack(
        [
            pages[:train].astype(np.float64),
            np.zeros(train, dtype=np.float64),
        ]
    )
    engine = GmmPolicyEngine.train(
        features, config.gmm, np.random.default_rng(1)
    )

    def serve(workers):
        serving = ServingConfig(
            chunk_requests=4_096,
            n_shards=4,
            sharding="tenant",
            partition_pages=750,
            strategy=strategy,
            refresh_enabled=False,
            parallel=ParallelConfig(workers=workers),
        )
        with IcgmmCacheService(
            engine,
            config=config,
            serving=serving,
            measure_from=train,
        ) as service:
            service.ingest(pages, is_write)
            return service.totals, service.summary()

    assert serve(4) == serve(1)
    assert fired, "short-span batcher never engaged"


def test_order_dependent_kernels_refuse_set_runs():
    """SLRU promotions can demote *other* ways and decayed-LFU hits
    rescale the whole set row: both must refuse the collapse gate."""
    cache = SetAssociativeCache(_geometry(8, 4))
    assert kernel_for(SlruPolicy(), cache).supports_set_runs is False
    assert (
        kernel_for(LfuPolicy(decay=0.9), cache).supports_set_runs
        is False
    )
    assert kernel_for(LfuPolicy(), cache).supports_set_runs is True
    for name, make in COMMUTATIVE_FACTORIES:
        if name in ("belady", "combined"):
            continue
        kernel = kernel_for(make(np.zeros(4, np.int64), 8), cache)
        assert kernel.supports_set_runs is True, name


def test_collapse_faster_on_single_set_hammer():
    """The mechanism's raison d'etre: a single scorching set must run
    far faster collapsed than through the per-element rounds."""
    import time

    geometry = CacheGeometry()  # paper geometry
    n = 400_000
    rng = np.random.default_rng(3)
    pages = (rng.integers(0, 6, n) * geometry.n_sets).astype(np.int64)
    is_write = rng.random(n) < 0.3
    scores = rng.standard_normal(n)

    timing = {}
    for collapse in (True, False):
        cache = SetAssociativeCache(geometry)
        started = time.perf_counter()
        stats = simulate_fast(
            cache,
            LruPolicy(),
            pages,
            is_write,
            scores=scores,
            set_run_collapse=collapse,
        )
        timing[collapse] = (time.perf_counter() - started, stats)
    assert timing[True][1] == timing[False][1]
    # Generous bound for CI noise; typical observed speedup is ~6x.
    assert timing[True][0] < timing[False][0] / 1.5
