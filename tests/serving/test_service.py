"""Tests for the streaming cache service.

The headline property is the exactness contract: with ``hash``
sharding and refresh disabled, the chunked, sharded, resumable
serving loop produces *bit-identical* counters to a single-shot
:meth:`IcgmmSystem.run_strategy` over the same stream, for every
Fig. 6 strategy.
"""

import numpy as np
import pytest

from repro.cache.stats import CacheStats
from repro.core.config import (
    ChaosConfig,
    GmmEngineConfig,
    IcgmmConfig,
    ServingConfig,
)
from repro.core.system import IcgmmSystem
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
    system = IcgmmSystem(config)
    prepared = system.prepare("memtier")
    return config, system, prepared


class TestSingleShotEquivalence:
    @pytest.mark.parametrize(
        "strategy",
        ["lru", "gmm-caching", "gmm-eviction", "gmm-caching-eviction"],
    )
    def test_sharded_chunked_loop_matches_system(
        self, prepared_system, strategy
    ):
        config, system, prepared = prepared_system
        expected = system.run_strategy(prepared, strategy).stats
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
        assert service.totals == expected

    def test_shard_and_chunk_geometry_is_irrelevant(
        self, prepared_system
    ):
        config, system, prepared = prepared_system
        expected = system.run_strategy(
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
        config, _, prepared = prepared_system
        serving = ServingConfig(
            chunk_requests=4_096,
            n_shards=2,
            sharding="tenant",
            partition_pages=1 << 9,
            strategy="lru",
            refresh_enabled=False,
        )
        service = IcgmmCacheService(
            prepared.engine, config=config, serving=serving
        )
        service.ingest(prepared.page_indices, prepared.is_write)
        assert service.totals.accesses == len(prepared)
        assert len(service.tenant_metrics.keys()) >= 1


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

    def test_explicit_serving_quantile_wins(self, prepared_system):
        _, _, prepared = prepared_system
        config = IcgmmConfig(
            gmm=GmmEngineConfig(threshold_quantile=0.3)
        )
        service = IcgmmCacheService(
            prepared.engine,
            config=config,
            serving=ServingConfig(threshold_quantile=0.1),
        )
        assert service.threshold_quantile == 0.1
        assert service.detector.quantile == 0.1


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

        def flaky_replay(tasks, simulator=None, profiler=None):
            if (
                crash_at["armed"]
                and service._chunk_index == crash_at["chunk"]
            ):
                crash_at["armed"] = False
                raise RuntimeError("transient replay failure")
            return original_replay(
                tasks, simulator=simulator, profiler=profiler
            )

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


def _async_service(
    prepared_system, chaos=None, telemetry=None, **serving_kwargs
):
    config, _, prepared = prepared_system
    serving_kwargs.setdefault("refresh_async", True)
    return IcgmmCacheService(
        prepared.engine,
        config=config,
        serving=ServingConfig(
            chunk_requests=2_000, n_shards=4, **serving_kwargs
        ),
        chaos=chaos,
        telemetry=telemetry,
    )


def _ingest_until_pending(service, pages, writes) -> bool:
    """Feed chunks until a background build is in flight.

    A build is submitted on the chunk that confirms drift and
    harvested no earlier than the next one, so stopping right after
    the submitting chunk leaves it pending whatever the wall clock.
    """
    step = service.serving.chunk_requests
    for start in range(0, pages.shape[0], step):
        service.ingest(
            pages[start : start + step], writes[start : start + step]
        )
        if service.summary()["refresh_async"]["pending"]:
            return True
    return False


class TestAsyncRefresh:
    """``refresh_async``: builds run off the request path and land
    through the same validate-and-CAS path as inline builds."""

    def test_drift_swaps_without_losing_accesses(
        self, prepared_system, drifted_stream
    ):
        pages, writes = drifted_stream
        with _async_service(prepared_system) as service:
            reports = service.ingest(pages, writes)
            service.drain_refresh()
            summary = service.summary()
        assert [r.chunk_index for r in reports] == list(
            range(len(reports))
        )
        assert sum(r.accesses for r in reports) == pages.shape[0]
        assert service.totals.accesses == pages.shape[0]
        assert len(service.swaps) >= 1
        assert service.generation == len(service.swaps)
        assert summary["refresh_async"]["pending"] is False
        assert summary["refresh_async"]["attempts"] >= len(
            service.swaps
        )

    @pytest.mark.parametrize(
        ("fault", "reason"),
        [("fail", "injected"), ("corrupt", "non-finite")],
    )
    def test_faulted_builds_back_off_and_never_swap(
        self, prepared_system, drifted_stream, fault, reason
    ):
        _, _, prepared = prepared_system
        pages, writes = drifted_stream
        chaos = ChaosConfig(
            enabled=True, seed=0, **{f"refresh_{fault}_rate": 1.0}
        )
        with _async_service(prepared_system, chaos=chaos) as service:
            service.ingest(pages, writes)
            service.drain_refresh()
        assert service.swaps == []
        assert service.generation == 0
        assert service.slot.engine is prepared.engine
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

    def test_close_discards_pending_build(
        self, prepared_system, drifted_stream
    ):
        service = _async_service(prepared_system)
        assert _ingest_until_pending(service, *drifted_stream)
        service.close()
        refresh = service.summary()["refresh_async"]
        assert refresh["pending"] is False
        assert refresh["discarded"] == 1
        assert service.swaps == []
        assert service.generation == 0

    def test_drain_lands_pending_build(
        self, prepared_system, drifted_stream
    ):
        with _async_service(prepared_system) as service:
            assert _ingest_until_pending(service, *drifted_stream)
            cursor = service.access_cursor
            assert service.drain_refresh() is True
            refresh = service.summary()["refresh_async"]
        assert service.generation == 1
        assert service.swaps[-1].access_cursor == cursor
        assert refresh["pending"] is False
        assert refresh["discarded"] == 0

    def test_matches_sync_when_refresh_disabled(
        self, prepared_system, drifted_stream
    ):
        pages, writes = drifted_stream
        runs = []
        for refresh_async in (False, True):
            telemetry = Telemetry()
            with _async_service(
                prepared_system,
                telemetry=telemetry,
                refresh_enabled=False,
                refresh_async=refresh_async,
            ) as service:
                reports = service.ingest(pages, writes)
                service.drain_refresh()
                summary = service.summary()
            summary.pop("refresh_async", None)
            runs.append(
                (reports, summary, telemetry.snapshot()["digest"])
            )
        assert runs[0] == runs[1]


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
