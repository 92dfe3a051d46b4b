"""Tests for the streaming cache service.

The headline property is the exactness contract: with ``hash``
sharding and refresh disabled, the chunked, sharded, resumable
serving loop produces *bit-identical* counters to a single-shot
:meth:`StagedPipeline.run_strategy` over the same stream, for every
Fig. 6 strategy.
"""

import dataclasses

import numpy as np
import pytest

from repro.cache.policies import LruPolicy
from repro.cache.setassoc import (
    CacheGeometry,
    SetAssociativeCache,
    simulate,
)
from repro.cache.stats import CacheStats
from repro.core.config import (
    ChaosConfig,
    GmmEngineConfig,
    IcgmmConfig,
    ServingConfig,
)
from repro.core.engine import GmmPolicyEngine
from repro.core.pipeline import StagedPipeline
from repro.gmm.quantized import QuantizedGmm
from repro.obs import Telemetry
from repro.serving import IcgmmCacheService


@pytest.fixture(scope="module")
def prepared_system():
    """One trained workload shared by the equivalence matrix."""
    config = IcgmmConfig(
        trace_length=40_000,
        gmm=GmmEngineConfig(
            n_components=8, max_iter=15, max_train_samples=8_000
        ),
    )
    pipeline = StagedPipeline(config)
    prepared = pipeline.prepare("memtier")
    return config, pipeline, prepared


def _served_totals(config, prepared, strategy):
    """Totals of 4 hash shards and 3,000-access chunks, refresh off."""
    serving = ServingConfig(
        chunk_requests=3_000,
        n_shards=4,
        sharding="hash",
        strategy=strategy,
        refresh_enabled=False,
    )
    service = IcgmmCacheService(
        prepared.engine,
        config=config,
        serving=serving,
        measure_from=int(len(prepared) * config.warmup_fraction),
    )
    service.ingest(prepared.page_indices, prepared.is_write)
    return service.totals


class TestSingleShotEquivalence:
    @pytest.mark.parametrize(
        "strategy",
        ["lru", "gmm-caching", "gmm-eviction", "gmm-caching-eviction"],
    )
    def test_sharded_chunked_loop_matches_system(
        self, prepared_system, strategy
    ):
        config, pipeline, prepared = prepared_system
        expected = pipeline.run_strategy(prepared, strategy).stats
        assert _served_totals(config, prepared, strategy) == expected

    @pytest.mark.parametrize(
        "strategy",
        ["lru", "gmm-caching", "gmm-eviction", "gmm-caching-eviction"],
    )
    def test_evicting_plane_matches_system(
        self, prepared_system, strategy
    ):
        """The default 64-set plane never evicts on this stream, so
        the blocks' stored scores cannot move its counters; 16 sets
        evict, and a fill stored with the wrong score shows."""
        config, _, prepared = prepared_system
        config = dataclasses.replace(
            config,
            geometry=CacheGeometry(
                capacity_bytes=16 * 8 * 4096,
                block_bytes=4096,
                associativity=8,
            ),
        )
        expected = StagedPipeline(config).run_strategy(
            prepared, strategy
        ).stats
        assert expected.evictions > 0
        assert _served_totals(config, prepared, strategy) == expected

    def test_shard_and_chunk_geometry_is_irrelevant(
        self, prepared_system
    ):
        config, pipeline, prepared = prepared_system
        expected = pipeline.run_strategy(
            prepared, "gmm-caching-eviction"
        ).stats
        for n_shards, chunk in ((1, 10**9), (8, 1_024)):
            serving = ServingConfig(
                chunk_requests=chunk,
                n_shards=n_shards,
                sharding="hash",
                strategy="gmm-caching-eviction",
                refresh_enabled=False,
            )
            service = IcgmmCacheService(
                prepared.engine,
                config=config,
                serving=serving,
                measure_from=int(
                    len(prepared) * config.warmup_fraction
                ),
            )
            service.ingest(prepared.page_indices, prepared.is_write)
            assert service.totals == expected


class TestAccounting:
    @pytest.fixture(scope="class")
    def served(self, prepared_system):
        config, _, prepared = prepared_system
        serving = ServingConfig(
            chunk_requests=4_096,
            n_shards=4,
            sharding="hash",
            strategy="gmm-caching-eviction",
            refresh_enabled=False,
            partition_pages=512,
        )
        service = IcgmmCacheService(
            prepared.engine, config=config, serving=serving
        )
        reports = service.ingest(
            prepared.page_indices, prepared.is_write
        )
        return service, reports

    def test_chunk_reports_sum_to_totals(self, served):
        service, reports = served
        merged = CacheStats()
        for report in reports:
            merged = merged.merge(report.stats)
        assert merged == service.totals

    def test_shard_totals_sum_to_totals(self, served):
        service, _ = served
        merged = CacheStats()
        for key in service.shard_metrics.keys():
            merged = merged.merge(service.shard_metrics.total(key))
        assert merged == service.totals

    def test_tenant_totals_sum_to_totals(self, served):
        service, _ = served
        merged = CacheStats()
        for key in service.tenant_metrics.keys():
            merged = merged.merge(service.tenant_metrics.total(key))
        assert merged == service.totals

    def test_summary_shape(self, served):
        service, _ = served
        summary = service.summary()
        assert summary["accesses"] == service.totals.accesses
        assert summary["generation"] == 0
        assert summary["swaps"] == []
        assert set(summary["shards"]) == {
            f"shard:{i}" for i in range(4)
        }
        for row in summary["shards"].values():
            assert {"miss_rate", "latency_us", "traffic_share"} <= set(
                row
            )
        shares = [
            row["traffic_share"]
            for row in summary["shards"].values()
        ]
        assert sum(shares) == pytest.approx(1.0)

    def test_measure_from_excludes_leading_stream(
        self, prepared_system
    ):
        config, _, prepared = prepared_system
        serving = ServingConfig(
            chunk_requests=4_096,
            n_shards=2,
            strategy="lru",
            refresh_enabled=False,
        )
        cut = len(prepared) // 2
        service = IcgmmCacheService(
            prepared.engine,
            config=config,
            serving=serving,
            measure_from=cut,
        )
        service.ingest(prepared.page_indices, prepared.is_write)
        assert service.totals.accesses == len(prepared) - cut


class TestTenantMode:
    def test_tenant_planes_isolate(self, prepared_system):
        """Each tenant owns a plane of ``1/n_shards`` of the capacity:
        its figures are those of a standalone replay of its own
        substream on such a plane, untouched by the other tenant."""
        config, _, prepared = prepared_system
        pages, writes = prepared.page_indices, prepared.is_write
        # Two tenants (pages below and above the stride), one per plane.
        partition = 760
        serving = ServingConfig(
            chunk_requests=4_096,
            n_shards=2,
            sharding="tenant",
            partition_pages=partition,
            strategy="lru",
            refresh_enabled=False,
        )
        service = IcgmmCacheService(
            prepared.engine, config=config, serving=serving
        )
        service.ingest(pages, writes)
        assert service.totals.accesses == len(prepared)
        assert service.tenant_metrics.keys() == ["tenant:0", "tenant:1"]
        geometry = config.geometry
        plane = CacheGeometry(
            capacity_bytes=geometry.capacity_bytes // 2,
            block_bytes=geometry.block_bytes,
            associativity=geometry.associativity,
        )
        for tenant in (0, 1):
            mine = pages // partition == tenant
            alone = simulate(
                SetAssociativeCache(plane),
                LruPolicy(),
                pages[mine],
                writes[mine],
            )
            assert (
                service.tenant_metrics.total(f"tenant:{tenant}") == alone
            )
            assert (
                service.shard_metrics.total(f"shard:{tenant}") == alone
            )


class TestThresholdQuantileWiring:
    def test_inherits_engine_training_quantile(self, prepared_system):
        """An engine trained at a non-default quantile must not bias
        the drift detector's expected below-threshold fraction
        (which would fire spurious refreshes on a stationary
        stream)."""
        _, _, prepared = prepared_system
        config = IcgmmConfig(
            gmm=GmmEngineConfig(threshold_quantile=0.3)
        )
        service = IcgmmCacheService(
            prepared.engine, config=config, serving=ServingConfig()
        )
        assert service.threshold_quantile == 0.3
        assert service.detector.quantile == 0.3
        assert service.refresher.threshold_quantile == 0.3


class TestResumableReplay:
    def test_mid_chunk_exception_leaves_state_resumable(
        self, prepared_system
    ):
        """A chunk that dies inside the replay call must leave no
        trace: every cursor/counter mutation sits *after* the fallible
        fan-out, so re-ingesting from the failed access produces the
        uninterrupted bit stream."""
        config, _, prepared = prepared_system
        serving = ServingConfig(
            chunk_requests=3_000,
            n_shards=4,
            sharding="hash",
            strategy="gmm-caching-eviction",
            refresh_enabled=False,
        )

        def build():
            return IcgmmCacheService(
                prepared.engine, config=config, serving=serving
            )

        reference = build()
        reference.ingest(prepared.page_indices, prepared.is_write)

        service = build()
        original_replay = service._executor.replay
        crash_at = {"chunk": 2, "armed": True}

        def flaky_replay(tasks, profiler=None):
            if (
                crash_at["armed"]
                and service._chunk_index == crash_at["chunk"]
            ):
                crash_at["armed"] = False
                raise RuntimeError("transient replay failure")
            return original_replay(tasks, profiler=profiler)

        service._executor.replay = flaky_replay
        with pytest.raises(RuntimeError, match="transient"):
            service.ingest(prepared.page_indices, prepared.is_write)
        # The failed chunk committed nothing.
        failed_from = crash_at["chunk"] * serving.chunk_requests
        assert service.access_cursor == failed_from
        assert service.totals.accesses == failed_from
        assert service.generation == 0
        # Resume from the exact failed access: bit-identical to the
        # uninterrupted run.
        service.ingest(
            prepared.page_indices[failed_from:],
            prepared.is_write[failed_from:],
        )
        assert service.access_cursor == reference.access_cursor
        assert service.totals == reference.totals


#: Page offset of the drifted stream's second phase, which replays
#: the prepared trace with every page moved this far up.
DRIFT_SHIFT = 50_000


@pytest.fixture(scope="module")
def drifted_stream(prepared_system):
    """The prepared trace followed by a relocated copy of itself."""
    _, _, prepared = prepared_system
    pages = np.concatenate(
        [prepared.page_indices, prepared.page_indices + DRIFT_SHIFT]
    )
    writes = np.concatenate([prepared.is_write, prepared.is_write])
    return pages, writes


class TestRefreshFaults:
    """Failed and corrupted refresh builds back off and never swap."""

    @pytest.mark.parametrize(
        ("fault", "reason"),
        [("fail", "injected"), ("corrupt", "non-finite")],
    )
    def test_faulted_builds_back_off_and_never_swap(
        self, prepared_system, drifted_stream, fault, reason
    ):
        config, _, prepared = prepared_system
        pages, writes = drifted_stream
        chaos = ChaosConfig(seed=0, **{f"refresh_{fault}_rate": 1.0})
        service = IcgmmCacheService(
            prepared.engine,
            config=config,
            serving=ServingConfig(chunk_requests=2_000, n_shards=4),
            chaos=chaos,
        )
        service.ingest(pages, writes)
        assert service.swaps == []
        assert service.generation == 0
        assert service.engine is prepared.engine
        events = service.shard_metrics.events("engine")
        failed = [e for e in events if e.kind == "refresh-failed"]
        assert all(reason in event.info["reason"] for event in failed)
        # Consecutive failures back off exponentially until the
        # breaker opens (three failures by default).
        base = service.serving.refresh_backoff_chunks
        assert [e.info["backoff_chunks"] for e in failed[:3]] == [
            base,
            2 * base,
            4 * base,
        ]
        assert "breaker-open" in [e.kind for e in events]
        # A corrupt build ran its fold; a failed one never started.
        if fault == "fail":
            assert service.refresher.refreshes_built == 0
        else:
            assert service.refresher.refreshes_built >= 1


class TestRefreshFailureCount:
    def test_summary_counts_every_failed_build(
        self, prepared_system, drifted_stream
    ):
        """The summary reports every failed build, not the backoff
        streak that each swap resets."""
        config, _, prepared = prepared_system
        pages, writes = drifted_stream
        service = IcgmmCacheService(
            prepared.engine,
            config=config,
            serving=ServingConfig(chunk_requests=2_000, n_shards=4),
            chaos=ChaosConfig(seed=4, refresh_fail_rate=0.5),
        )
        service.ingest(pages, writes)
        kinds = [e.kind for e in service.shard_metrics.events("engine")]
        failed = [
            i for i, kind in enumerate(kinds) if kind == "refresh-failed"
        ]
        swaps = [
            i for i, kind in enumerate(kinds) if kind == "refresh-swap"
        ]
        # The plan must put a swap between two failures, or a
        # streak would count the same as a total.
        assert any(failed[0] < swap < failed[-1] for swap in swaps)
        chaos = service.summary()["chaos"]
        assert chaos["refresh_failures"] == len(failed)
        assert chaos["refresh_attempts"] == len(failed) + len(swaps)


class TestRefreshSwaps:
    """What one inline refresh leaves behind, build by build."""

    @pytest.fixture(scope="class")
    def half_failing(self, prepared_system, drifted_stream):
        """A drifted run whose builds fail injected half the time,
        with telemetry on and every built engine recorded."""
        config, _, prepared = prepared_system
        pages, writes = drifted_stream
        telemetry = Telemetry(seed=0)
        built = []
        service = IcgmmCacheService(
            prepared.engine,
            config=config,
            serving=ServingConfig(chunk_requests=2_000, n_shards=4),
            chaos=ChaosConfig(seed=4, refresh_fail_rate=0.5),
            telemetry=telemetry,
        )
        build = service.refresher.build

        def recording_build(engine):
            refreshed = build(engine)
            built.append(refreshed)
            return refreshed

        service.refresher.build = recording_build
        service.ingest(pages, writes)
        return service, built, telemetry

    def test_build_runs_once_per_uninjected_attempt(self, half_failing):
        """An injected failure never starts the fold; every other
        attempt builds exactly once and, valid, swaps in."""
        service, built, _ = half_failing
        failed = [
            event
            for event in service.shard_metrics.events("engine")
            if event.kind == "refresh-failed"
        ]
        assert failed and service.swaps
        assert all("injected" in e.info["reason"] for e in failed)
        chaos = service.summary()["chaos"]
        assert len(built) == chaos["refresh_attempts"] - len(failed)
        assert service.refresher.refreshes_built == len(built)
        assert [event.threshold for event in service.swaps] == [
            refreshed.admission_threshold for refreshed in built
        ]
        assert service.engine is built[-1]

    def test_telemetry_counts_every_outcome(self, half_failing):
        service, _, telemetry = half_failing
        families = {
            family["name"]: family["samples"]
            for family in telemetry.registry.as_dicts()
        }

        def value(name, **labels):
            (sample,) = [
                s for s in families[name] if s["labels"] == labels
            ]
            return sample["value"]

        n_swaps = len(service.swaps)
        chaos = service.summary()["chaos"]
        assert value("serving_engine_swaps_total") == n_swaps
        assert (
            value("serving_refresh_builds_total", outcome="swapped")
            == n_swaps
        )
        assert (
            value("serving_refresh_builds_total", outcome="failed")
            == chaos["refresh_failures"]
        )
        assert value("serving_engine_generation_count") == n_swaps
        assert service.generation == n_swaps

    def test_trace_instants_follow_the_engine_events(self, half_failing):
        """One ``refresh_build`` instant per attempt, numbered in
        order, with the outcome its engine event recorded."""
        service, _, telemetry = half_failing
        instants = [
            span["attrs"]
            for span in telemetry.tracer.as_dicts()
            if span["name"] == "refresh_build"
        ]
        outcomes = {"refresh-failed": "failed", "refresh-swap": "swapped"}
        expected = [
            outcomes[event.kind]
            for event in service.shard_metrics.events("engine")
            if event.kind in outcomes
        ]
        assert [attrs["outcome"] for attrs in instants] == expected
        assert [attrs["build"] for attrs in instants] == list(
            range(len(expected))
        )

    def test_live_components_gauge_follows_each_swap(
        self, prepared_system, drifted_stream
    ):
        """The gauge counts the serving mixture's components of weight
        > 0: all of them before any swap, then each swapped-in
        engine's."""
        config, _, prepared = prepared_system
        pages, writes = drifted_stream
        telemetry = Telemetry(seed=0)

        def gauge():
            (family,) = [
                family
                for family in telemetry.registry.as_dicts()
                if family["name"] == "serving_engine_live_components_count"
            ]
            (sample,) = family["samples"]
            return sample["value"]

        service = IcgmmCacheService(
            prepared.engine,
            config=config,
            serving=ServingConfig(chunk_requests=2_000, n_shards=4),
            telemetry=telemetry,
        )
        before = gauge()
        readings = []
        rebase = service.detector.rebase

        def reading_rebase(threshold, quantile):
            rebase(threshold, quantile)
            live = np.count_nonzero(service.engine.model.weights)
            readings.append((gauge(), live))

        service.detector.rebase = reading_rebase
        service.ingest(pages, writes)
        assert before == prepared.engine.model.n_components
        assert service.swaps and len(readings) == len(service.swaps)
        assert all(value == live for value, live in readings)

    def test_swap_rebases_detector_and_policies(
        self, prepared_system, drifted_stream
    ):
        """Each landed build re-anchors the drift detector and every
        plane's admission policy on its own threshold."""
        config, _, prepared = prepared_system
        pages, writes = drifted_stream
        service = IcgmmCacheService(
            prepared.engine,
            config=config,
            serving=ServingConfig(chunk_requests=2_000, n_shards=4),
        )
        rebase = service.detector.rebase
        rebases = []

        def recording_rebase(threshold, quantile):
            rebases.append((threshold, quantile))
            rebase(threshold, quantile)

        service.detector.rebase = recording_rebase
        service.ingest(pages, writes)
        assert service.swaps, "the drifted stream must land a build"
        assert rebases == [
            (event.threshold, service.threshold_quantile)
            for event in service.swaps
        ]
        threshold = service.engine.admission_threshold
        assert service.detector.threshold == threshold
        assert [policy.threshold for policy in service._policies] == [
            threshold
        ] * len(service._policies)


class TestQuantizedRefresh:
    def test_swaps_keep_the_fixed_point_scorer(
        self, prepared_system, drifted_stream
    ):
        """A fixed-point deployment serves fixed-point scores after
        every swap, and each threshold is cut on those scores."""
        config, _, prepared = prepared_system
        pages, writes = drifted_stream
        trained = prepared.engine
        engine = GmmPolicyEngine(
            model=trained.model,
            scaler=trained.scaler,
            admission_threshold=trained.admission_threshold,
            quantized=QuantizedGmm(trained.model),
        )
        builds = []
        service = IcgmmCacheService(
            engine,
            config=config,
            serving=ServingConfig(chunk_requests=2_000, n_shards=4),
        )
        build = service.refresher.build

        def recording_build(current):
            buffer = service.refresher.snapshot_features()
            refreshed = build(current)
            builds.append((refreshed, buffer))
            return refreshed

        service.refresher.build = recording_build
        service.ingest(pages, writes)
        assert service.swaps
        assert [event.threshold for event in service.swaps] == [
            refreshed.admission_threshold for refreshed, _ in builds
        ]
        quantile = service.refresher.threshold_quantile
        for refreshed, buffer in builds:
            assert refreshed.quantized is not None
            assert refreshed.admission_threshold == np.quantile(
                refreshed.score(buffer), quantile
            )


class TestValidation:
    def test_rejects_bad_inputs(self, prepared_system):
        config, _, prepared = prepared_system
        service = IcgmmCacheService(
            prepared.engine,
            config=config,
            serving=ServingConfig(refresh_enabled=False),
        )
        with pytest.raises(ValueError, match="1-D"):
            service.ingest(
                np.zeros((2, 2), dtype=np.int64),
                np.zeros((2, 2), dtype=bool),
            )
        with pytest.raises(ValueError, match="measure_from"):
            IcgmmCacheService(
                prepared.engine, config=config, measure_from=-1
            )
