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

:class:`TestTwoTenantGapRecovery` races three deployments -- frozen,
online refresh, and an oracle engine trained on post-drift traffic --
on a two-tenant stream where only the second tenant drifts: the
online service must close at least half of the frozen-vs-oracle
post-drift miss-rate gap, and every deployment must account every
access.
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


def _replay(pages, writes, engine, config, refresh, on_build=None):
    """Stream through a fresh service; ``on_build`` sees every
    refreshed engine its refresher builds.  Returns the service and
    its chunk reports."""
    serving = ServingConfig(
        chunk_requests=4_096,
        n_shards=4,
        sharding="hash",
        strategy="gmm-caching-eviction",
        refresh_enabled=refresh,
        refresh_cooldown_chunks=2,
    )
    # Post-drift steady state only: skip the detect/refresh transient.
    measure_from = N_PHASE + int(0.4 * N_PHASE)
    service = IcgmmCacheService(
        engine, config=config, serving=serving, measure_from=measure_from
    )
    if on_build is not None:
        build = service.refresher.build

        def recording_build(current):
            refreshed = build(current)
            on_build(refreshed)
            return refreshed

        service.refresher.build = recording_build
    reports = service.ingest(pages, writes)
    return service, reports


class TestDriftAdaptation:
    def test_online_beats_frozen_after_drift(self, drift_scenario):
        pages, writes, engine, config = drift_scenario
        frozen, _ = _replay(pages, writes, engine, config, refresh=False)
        online, _ = _replay(pages, writes, engine, config, refresh=True)

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
        built = []
        online, reports = _replay(
            pages, writes, engine, config, refresh=True,
            on_build=built.append,
        )
        assert len(online.swaps) >= 1
        assert online.generation == len(online.swaps)
        # Every build lands: generations count the swaps 1, 2, ...,
        # and the last built engine is the one serving.
        assert len(built) == len(online.swaps)
        assert online.engine is built[-1]
        assert [event.generation for event in online.swaps] == list(
            range(1, len(online.swaps) + 1)
        )
        assert [event.threshold for event in online.swaps] == [
            refreshed.admission_threshold for refreshed in built
        ]
        # The swapping chunk reports the new generation; every other
        # chunk the generation it was scored under.
        assert [
            (report.chunk_index, report.generation)
            for report in reports
            if report.swapped
        ] == [
            (event.chunk_index, event.generation)
            for event in online.swaps
        ]
        generation = 0
        for report in reports:
            generation += report.swapped
            assert report.generation == generation
        first = online.swaps[0]
        # The swap fired after the drift point, not before it.
        assert first.access_cursor > N_PHASE
        # ... and within a handful of chunks of it (prompt detection).
        assert first.access_cursor < N_PHASE + 12 * 4_096

    def test_frozen_service_never_swaps(self, drift_scenario):
        pages, writes, engine, config = drift_scenario
        frozen, _ = _replay(pages, writes, engine, config, refresh=False)
        assert frozen.swaps == []
        assert frozen.generation == 0


def _train(pages, gmm_config, seed=7):
    timestamps = transform_timestamps(pages.shape[0], mode="prose")
    features = np.column_stack(
        [pages.astype(float), timestamps.astype(float)]
    )
    return GmmPolicyEngine.train(
        features, gmm_config, np.random.default_rng(seed)
    )


class TestTwoTenantGapRecovery:
    """Frozen vs online vs oracle on the two-tenant drift stream
    (1,200 hot pages per tenant, seed 7, 64 sets, K = 8)."""

    N_PHASE = 30_000
    N_TRAIN = 15_000

    @pytest.fixture(scope="class")
    def deployments(self, two_tenant_drift_stream):
        pages, writes, boundary = two_tenant_drift_stream(
            self.N_PHASE, 1_200, seed=7
        )
        gmm = GmmEngineConfig(
            n_components=8, max_iter=20, max_train_samples=8_000
        )
        config = IcgmmConfig(
            geometry=CacheGeometry(
                capacity_bytes=64 * 8 * 4096,
                block_bytes=4096,
                associativity=8,
            ),
            gmm=gmm,
        )
        frozen = _train(pages[: self.N_TRAIN], gmm)
        oracle = _train(pages[boundary : boundary + self.N_TRAIN], gmm)
        # Post-drift steady state: the last 60 % of the second phase.
        measure_from = boundary + int(0.4 * self.N_PHASE)
        runs = {}
        for name, engine, refresh in (
            ("frozen", frozen, False),
            ("online", frozen, True),
            ("oracle", oracle, False),
        ):
            serving = ServingConfig(
                chunk_requests=4_096,
                n_shards=4,
                sharding="hash",
                strategy="gmm-caching-eviction",
                refresh_enabled=refresh,
                refresh_cooldown_chunks=2,
            )
            service = IcgmmCacheService(
                engine,
                config=config,
                serving=serving,
                measure_from=measure_from,
            )
            try:
                reports = service.ingest(pages, writes)
            finally:
                service.close()
            runs[name] = (service, reports)
        return pages.shape[0], runs

    def test_online_recovers_half_the_oracle_gap(self, deployments):
        _, runs = deployments
        miss = {
            name: service.totals.miss_rate
            for name, (service, _) in runs.items()
        }
        gap = miss["frozen"] - miss["oracle"]
        assert gap > 0
        recovered = (miss["frozen"] - miss["online"]) / gap
        assert recovered >= 0.5, miss

    @pytest.mark.parametrize("name", ["frozen", "online", "oracle"])
    def test_every_access_is_reported_in_order(self, deployments, name):
        n_accesses, runs = deployments
        _, reports = runs[name]
        assert [r.chunk_index for r in reports] == list(
            range(len(reports))
        )
        assert sum(r.accesses for r in reports) == n_accesses
