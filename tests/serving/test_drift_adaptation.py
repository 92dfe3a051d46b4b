"""System-level drift adaptation: warm-started EM refresh through
the serving loop.

A two-phase Zipf stream (the hot slab region jumps at the midpoint,
modelling a failover / cache rebuild) is replayed through the full
service.  A frozen engine scores the new hot pages as cold and
bypasses/evicts them -- post-drift its miss rate collapses toward
100%.  The drift-aware service must detect the shift on the score
distribution, fold recent chunks into the mixture by warm EM,
swap the refreshed engine in, and end up with a materially better
post-drift miss rate.
"""

import numpy as np
import pytest

from repro.cache.setassoc import CacheGeometry
from repro.core.config import (
    GmmEngineConfig,
    IcgmmConfig,
    ServingConfig,
)
from repro.core.engine import GmmPolicyEngine
from repro.serving import IcgmmCacheService
from repro.traces.preprocess import transform_timestamps
from repro.traces.synthetic import ZipfSampler

N_PHASE = 30_000
HOT_PAGES = 1_500


@pytest.fixture(scope="module")
def drift_scenario():
    """Stream, frozen engine and system config, shared per module."""
    rng = np.random.default_rng(0)
    phase_a = ZipfSampler(
        base_page=0, n_pages=HOT_PAGES, alpha=1.2, write_fraction=0.25
    )
    phase_b = ZipfSampler(
        base_page=6_000,
        n_pages=HOT_PAGES,
        alpha=1.2,
        write_fraction=0.25,
    )
    pages_a, writes_a = phase_a.sample(N_PHASE, rng)
    pages_b, writes_b = phase_b.sample(N_PHASE, rng)
    pages = np.concatenate([pages_a, pages_b])
    writes = np.concatenate([writes_a, writes_b])

    n_train = N_PHASE // 2
    timestamps = transform_timestamps(n_train, mode="prose")
    features = np.column_stack(
        [pages[:n_train].astype(float), timestamps.astype(float)]
    )
    engine = GmmPolicyEngine.train(
        features,
        GmmEngineConfig(
            n_components=8, max_iter=20, max_train_samples=8_000
        ),
        np.random.default_rng(1),
    )
    config = IcgmmConfig(
        geometry=CacheGeometry(
            capacity_bytes=64 * 8 * 4096,
            block_bytes=4096,
            associativity=8,
        ),
        gmm=GmmEngineConfig(n_components=8),
    )
    return pages, writes, engine, config


def _replay(pages, writes, engine, config, refresh):
    serving = ServingConfig(
        chunk_requests=4_096,
        n_shards=4,
        sharding="hash",
        strategy="gmm-caching-eviction",
        refresh_enabled=refresh,
        drift_baseline_chunks=2,
        drift_patience=2,
        refresh_cooldown_chunks=2,
    )
    # Post-drift steady state only: skip the detect/refresh transient.
    measure_from = N_PHASE + int(0.4 * N_PHASE)
    service = IcgmmCacheService(
        engine, config=config, serving=serving, measure_from=measure_from
    )
    service.ingest(pages, writes)
    return service


class TestDriftAdaptation:
    def test_online_beats_frozen_after_drift(self, drift_scenario):
        pages, writes, engine, config = drift_scenario
        frozen = _replay(pages, writes, engine, config, refresh=False)
        online = _replay(pages, writes, engine, config, refresh=True)

        # The frozen engine admits almost nothing post-drift.
        assert frozen.totals.miss_rate > 0.8
        # The refreshed engine must recover most of the traffic --
        # comfortably more than half the frozen engine's miss rate.
        assert (
            online.totals.miss_rate
            < frozen.totals.miss_rate * 0.5
        )

    def test_refresh_actually_happened(self, drift_scenario):
        pages, writes, engine, config = drift_scenario
        online = _replay(pages, writes, engine, config, refresh=True)
        assert len(online.swaps) >= 1
        assert online.generation == len(online.swaps)
        first = online.swaps[0]
        # The swap fired after the drift point, not before it.
        assert first.access_cursor > N_PHASE
        # ... and within a handful of chunks of it (prompt detection).
        assert first.access_cursor < N_PHASE + 12 * 4_096

    def test_frozen_service_never_swaps(self, drift_scenario):
        pages, writes, engine, config = drift_scenario
        frozen = _replay(pages, writes, engine, config, refresh=False)
        assert frozen.swaps == []
        assert frozen.generation == 0
