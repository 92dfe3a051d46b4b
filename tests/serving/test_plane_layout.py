"""Property: hash sharding's one plane replays the split-plane layout.

The serving loop replays a hash-sharded cache as one full-geometry
plane per chunk, with a shard reduced to a label (``page % n_shards``)
naming a fixed group of the plane's sets.  The oracle replays the
split layout instead -- one ``1/n_shards`` plane per shard, tags
``page // n_shards``, one cursor and policy per shard -- through the
scalar reference :func:`~repro.cache.setassoc.simulate`.  Totals,
per-chunk reports and per-shard and per-tenant metrics must agree bit
for bit, for every strategy and shard count, on odd chunk sizes, and
under an injected shard stall: the stalled shard-chunk is bypassed
without touching its sets of the plane.
"""

from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.setassoc import (
    CacheGeometry,
    SetAssociativeCache,
    simulate,
)
from repro.cache.stats import OUTCOME_BYPASS, CacheStats, stats_from_outcomes
from repro.chaos import (
    KIND_SHARD_STALL,
    FaultEvent,
    FaultInjector,
    FaultPlan,
)
from repro.core.config import (
    STRATEGIES,
    ChaosConfig,
    GmmEngineConfig,
    IcgmmConfig,
    ServingConfig,
)
from repro.core.engine import GmmPolicyEngine
from repro.core.pipeline import StagedPipeline
from repro.core.policy import build_policy, strategy_views
from repro.serving import IcgmmCacheService

PARTITION_PAGES = 1 << 14


@pytest.fixture(scope="module")
def engine():
    rng = np.random.default_rng(5)
    pages = rng.integers(0, 2 * PARTITION_PAGES, 4_000)
    features = StagedPipeline(IcgmmConfig()).chunk_features(pages, 0)
    return GmmPolicyEngine.train(
        features,
        GmmEngineConfig(n_components=4, max_train_samples=2_000),
        np.random.default_rng(1),
    )


def _stream(seed: int, n: int, n_blocks: int):
    """Hot/cold pages over two tenant partitions, with short runs."""
    rng = np.random.default_rng(seed)
    hot = rng.integers(0, max(2, n_blocks // 2), n)
    cold = rng.integers(0, 8 * n_blocks, n)
    base = np.where(rng.random(n) < 0.7, hot, cold)
    base = base + PARTITION_PAGES * rng.integers(0, 2, n)
    pages = np.repeat(base, rng.integers(1, 4, n))[:n]
    return pages.astype(np.int64), rng.random(n) < 0.3


def _split_layout(engine, config, serving, pages, writes, measure_from,
                  stall):
    """The split-plane layout through the scalar reference."""
    n_shards = serving.n_shards
    geometry = config.geometry
    shard_geometry = CacheGeometry(
        capacity_bytes=geometry.capacity_bytes // n_shards,
        block_bytes=geometry.block_bytes,
        associativity=geometry.associativity,
    )
    caches = [SetAssociativeCache(shard_geometry) for _ in range(n_shards)]
    score_view, fill_view = strategy_views(serving.strategy)
    unique = np.unique(pages)
    marginals = dict(
        zip(unique.tolist(), engine.page_scores(unique).tolist())
    )
    policies = [
        build_policy(serving.strategy, engine.admission_threshold)
        for _ in range(n_shards)
    ]
    cursors = [0] * n_shards
    pipeline = StagedPipeline(config)
    reports = []
    shards: dict = defaultdict(CacheStats)
    degraded: dict = defaultdict(CacheStats)
    tenants: dict = defaultdict(CacheStats)
    step = serving.chunk_requests
    for index, start in enumerate(range(0, pages.shape[0], step)):
        c_pages = pages[start : start + step]
        c_writes = writes[start : start + step]
        streams = {
            "request": engine.score(pipeline.chunk_features(c_pages, start)),
            "page": np.array([marginals[p] for p in c_pages.tolist()]),
            None: None,
        }
        scores, fills = streams[score_view], streams[fill_view]
        outcome = np.full(c_pages.shape[0], OUTCOME_BYPASS, np.uint8)
        measured = np.arange(start, start + c_pages.shape[0]) >= (
            measure_from
        )
        shard_of = c_pages % n_shards
        for shard in range(n_shards):
            pos = np.flatnonzero(shard_of == shard)
            if pos.size == 0:
                continue
            down = stall == (index, shard)
            if not down:
                out = np.empty(pos.size, dtype=np.uint8)
                simulate(
                    caches[shard],
                    policies[shard],
                    c_pages[pos] // n_shards,
                    c_writes[pos],
                    scores=None if scores is None else scores[pos],
                    index_offset=cursors[shard],
                    outcome=out,
                    fill_scores=None if fills is None else fills[pos],
                )
                outcome[pos] = out
                cursors[shard] += int(pos.size)
            part = stats_from_outcomes(
                outcome[pos], c_writes[pos], measured[pos]
            )
            shards[f"shard:{shard}"] = shards[f"shard:{shard}"].merge(part)
            if down:
                degraded[f"shard:{shard}"] = part
        tenant_of = c_pages // PARTITION_PAGES
        for tenant in np.unique(tenant_of).tolist():
            mask = tenant_of == tenant
            tenants[f"tenant:{tenant}"] = tenants[
                f"tenant:{tenant}"
            ].merge(
                stats_from_outcomes(
                    outcome[mask], c_writes[mask], measured[mask]
                )
            )
        reports.append(stats_from_outcomes(outcome, c_writes, measured))
    return reports, shards, degraded, tenants


def _rows(cache: SetAssociativeCache, sets: np.ndarray):
    return [
        getattr(cache, plane)[sets].copy()
        for plane in ("tags", "dirty", "meta", "stamp")
    ]


@settings(max_examples=30, deadline=None)
@given(
    n_shards=st.sampled_from([1, 2, 4, 8]),
    n_sets=st.sampled_from([8, 16, 64]),
    ways=st.sampled_from([1, 2, 4, 8]),
    chunk=st.integers(40, 900).map(lambda k: 2 * k + 1),
    strategy=st.sampled_from(STRATEGIES),
    length=st.integers(1_500, 5_000),
    measure_share=st.floats(0.0, 0.5),
    stall=st.one_of(
        st.none(), st.tuples(st.integers(0, 3), st.integers(0, 7))
    ),
    seed=st.integers(0, 2**16),
)
def test_one_plane_replays_the_split_layout(
    engine, n_shards, n_sets, ways, chunk, strategy, length,
    measure_share, stall, seed,
):
    geometry = CacheGeometry(
        capacity_bytes=n_sets * ways * 4096,
        block_bytes=4096,
        associativity=ways,
    )
    config = IcgmmConfig(geometry=geometry)
    serving = ServingConfig(
        chunk_requests=chunk,
        n_shards=n_shards,
        partition_pages=PARTITION_PAGES,
        strategy=strategy,
        refresh_enabled=False,
    )
    if stall is not None:
        stall = (stall[0], stall[1] % n_shards)
    pages, writes = _stream(seed, length, geometry.n_blocks)
    measure_from = int(length * measure_share)
    service = IcgmmCacheService(
        engine,
        config=config,
        serving=serving,
        measure_from=measure_from,
        chaos=ChaosConfig(seed=0),
    )
    events = []
    if stall is not None:
        events.append(
            FaultEvent(start=stall[0], kind=KIND_SHARD_STALL, target=stall[1])
        )
    service.injector = FaultInjector(
        FaultPlan(ChaosConfig(seed=0), events)
    )

    plane = service.planes.caches[0]
    reports = []
    for index, start in enumerate(range(0, length, chunk)):
        c_pages = pages[start : start + chunk]
        degrading = (
            stall is not None
            and stall[0] == index
            and bool((c_pages % n_shards == stall[1]).any())
        )
        if degrading:
            shard_sets = np.flatnonzero(
                np.arange(n_sets) % n_shards == stall[1]
            )
            before = _rows(plane, shard_sets)
        reports.extend(service.ingest(c_pages, writes[start : start + chunk]))
        if degrading:
            for kept, now in zip(before, _rows(plane, shard_sets)):
                np.testing.assert_array_equal(kept, now)

    expected, shards, degraded, tenants = _split_layout(
        engine, config, serving, pages, writes, measure_from, stall
    )
    assert [report.stats for report in reports] == expected
    merged = CacheStats()
    for stats in expected:
        merged = merged.merge(stats)
    assert service.totals == merged
    assert service.shard_metrics.keys() == list(shards)
    for key, stats in shards.items():
        assert service.shard_metrics.total(key) == stats
        assert service.shard_metrics.degraded_total(key) == degraded.get(
            key, CacheStats()
        )
    assert service.tenant_metrics.keys() == list(tenants)
    for key, stats in tenants.items():
        assert service.tenant_metrics.total(key) == stats
