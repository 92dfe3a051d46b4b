"""Parallel serving-loop determinism tests.

The multicore contract of :class:`repro.serving.IcgmmCacheService`:
any worker count produces byte-identical totals, rolling metrics
(pricing included), drift-detector decisions, and engine-swap history
to the sequential loop -- drift adaptation and all.  Hash sharding
replays one plane per chunk; tenant sharding's planes (four tenants
here, one per plane) are what the worker threads fan out over.
"""

import numpy as np
import pytest

from repro.core.config import (
    GmmEngineConfig,
    IcgmmConfig,
    ParallelConfig,
    ServingConfig,
)
from repro.core.engine import GmmPolicyEngine
from repro.serving import IcgmmCacheService

N = 60_000
TRAIN = 5_000

#: Tenant stride: the stream's pages span four tenants, one per plane.
PARTITION_PAGES = 10_000

#: (parallel config, sharding mode) of every variant checked against
#: the sequential loop.
PARALLEL_VARIANTS = [
    (ParallelConfig(workers=4), "hash"),
    (ParallelConfig(workers=4), "tenant"),
]
VARIANT_IDS = ["thread4", "thread4-tenant"]


@pytest.fixture(scope="module")
def config():
    return IcgmmConfig(
        gmm=GmmEngineConfig(n_components=4, max_train_samples=2_000)
    )


@pytest.fixture(scope="module")
def stream():
    rng = np.random.default_rng(23)
    # Hot-region shift at the midpoint so the drift detector and the
    # refresh/swap machinery actually fire.
    head = rng.integers(0, 20_000, N // 2)
    tail = rng.integers(15_000, 40_000, N - N // 2)
    pages = np.concatenate([head, tail])
    is_write = rng.random(N) < 0.3
    return pages, is_write


@pytest.fixture(scope="module")
def engine(config, stream):
    pages, _ = stream
    features = np.column_stack(
        [
            pages[:TRAIN].astype(np.float64),
            np.zeros(TRAIN, dtype=np.float64),
        ]
    )
    return GmmPolicyEngine.train(
        features, config.gmm, np.random.default_rng(1)
    )


def _serve(
    config, engine, stream, parallel, strategy, refresh, sharding="hash"
):
    pages, is_write = stream
    serving = ServingConfig(
        chunk_requests=4_096,
        n_shards=4,
        sharding=sharding,
        partition_pages=PARTITION_PAGES,
        strategy=strategy,
        refresh_enabled=refresh,
        parallel=parallel,
    )
    with IcgmmCacheService(
        engine, config=config, serving=serving, measure_from=TRAIN
    ) as service:
        reports = service.ingest(pages, is_write)
        drift_log = [
            (
                report.chunk_index,
                report.swapped,
                report.generation,
                None
                if report.drift is None
                else (
                    repr(report.drift.ks),
                    repr(report.drift.below_threshold_fraction),
                    report.drift.signal,
                    report.drift.drifted,
                ),
            )
            for report in reports
        ]
        return service.totals, service.summary(), drift_log


@pytest.mark.parametrize(
    "parallel,sharding", PARALLEL_VARIANTS, ids=VARIANT_IDS
)
@pytest.mark.parametrize(
    "strategy", ["lru", "gmm-eviction", "gmm-caching-eviction"]
)
def test_parallel_serving_is_bit_identical(
    config, engine, stream, parallel, sharding, strategy
):
    sequential = _serve(
        config,
        engine,
        stream,
        ParallelConfig(workers=1),
        strategy,
        refresh=False,
        sharding=sharding,
    )
    result = _serve(
        config,
        engine,
        stream,
        parallel,
        strategy,
        refresh=False,
        sharding=sharding,
    )
    assert result[0] == sequential[0]  # totals
    assert result[1] == sequential[1]  # metrics + pricing snapshot
    assert result[2] == sequential[2]  # per-chunk reports


@pytest.mark.parametrize(
    "parallel,sharding", PARALLEL_VARIANTS, ids=VARIANT_IDS
)
def test_drift_and_swap_decisions_match_sequential(
    config, engine, stream, parallel, sharding
):
    sequential = _serve(
        config,
        engine,
        stream,
        ParallelConfig(workers=1),
        "gmm-caching-eviction",
        refresh=True,
        sharding=sharding,
    )
    assert sequential[1]["swaps"], "scenario must trigger a swap"
    result = _serve(
        config,
        engine,
        stream,
        parallel,
        "gmm-caching-eviction",
        refresh=True,
        sharding=sharding,
    )
    assert result[0] == sequential[0]
    assert result[1] == sequential[1]
    assert result[2] == sequential[2]


def test_worker_crash_propagates(config, engine, stream, monkeypatch):
    import repro.core.parallel as parallel_mod

    def explode(task):
        raise RuntimeError("shard replay exploded")

    monkeypatch.setattr(parallel_mod, "_run_replay", explode)
    pages, is_write = stream
    serving = ServingConfig(
        n_shards=4,
        sharding="tenant",
        partition_pages=PARTITION_PAGES,
        refresh_enabled=False,
        parallel=ParallelConfig(workers=4),
    )
    with IcgmmCacheService(
        engine, config=config, serving=serving
    ) as service:
        with pytest.raises(RuntimeError, match="exploded"):
            service.ingest(pages[:8_192], is_write[:8_192])
