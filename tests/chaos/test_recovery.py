"""Graceful degradation + recovery of every victim layer.

Targeted, hand-written fault plans (not sampled ones) drive each
degradation path deterministically: fabric failover and degraded-link
pricing, serving stall degradation, refresh backoff + circuit
breaker -- plus the cross-cutting guarantee that a chaotic run is
bit-identical at every worker count.
"""

import numpy as np
import pytest

from repro.chaos import (
    KIND_DEVICE_CORRELATED,
    KIND_DEVICE_FAIL,
    KIND_DEVICE_FAILSLOW,
    KIND_LINK_DEGRADE,
    KIND_REFRESH_CORRUPT,
    KIND_REFRESH_FAIL,
    KIND_SHARD_STALL,
    SCENARIO_NAMES,
    SERVING_SCENARIOS,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    run_fabric_scenario,
    scenario_chaos,
)
from repro.core.config import (
    ChaosConfig,
    FabricTopology,
    ParallelConfig,
    ServingConfig,
)
from repro.cxl.fabric import CxlFabric
from repro.serving import IcgmmCacheService


def _inject(victim, events):
    """Swap a hand-written plan into an already-wired victim."""
    injector = FaultInjector(
        FaultPlan(ChaosConfig(seed=0), events)
    )
    victim.injector = injector
    return injector


#: Zero-rate but enabled: the victims build an (empty) injector and
#: activate every chaos gate, then tests swap in a targeted plan.
ARMED = ChaosConfig(seed=0)


def _fabric(config, chaos=ARMED, monitor=False):
    return CxlFabric(
        FabricTopology(n_devices=4),
        config=config,
        chaos=chaos,
        monitor=monitor,
    )


def _stream(fabric, pages, writes, chunk=2_000, marginals=None):
    for start in range(0, pages.shape[0], chunk):
        sl = slice(start, start + chunk)
        fabric.ingest(
            pages[sl],
            writes[sl],
            page_marginals=None if marginals is None else marginals[sl],
        )
    return fabric.results()


class TestFabricFailover:
    def test_outage_loses_zero_accesses(self, chaos_workload):
        config, _, pages, writes = chaos_workload
        fabric = _fabric(config)
        _inject(
            fabric,
            [
                FaultEvent(
                    start=1, kind=KIND_DEVICE_FAIL, target=2,
                    duration=3,
                )
            ],
        )
        try:
            fabric.bind("lru", 0.0)
            result = _stream(fabric, pages, writes)
        finally:
            fabric.close()
        assert result.accesses == pages.shape[0]
        # The outage traffic was re-homed onto healthy devices and
        # billed the failover link premium.
        failover = sum(
            d.failover_stats.accesses
            for d in result.devices
            if d.failover_stats is not None
        )
        assert failover > 0
        assert sum(d.degraded_time_ns for d in result.devices) > 0
        kinds = [e.kind for e in fabric.metrics.events()]
        assert kinds.count("device-down") == 1
        assert kinds.count("device-restored") == 1
        assert fabric.metrics.recovery_latencies(
            "device-down", "device-restored"
        ) == [3]

    def test_whole_fleet_down_degrades_to_bypass(self, chaos_workload):
        config, _, pages, writes = chaos_workload
        fabric = _fabric(config)
        _inject(
            fabric,
            [
                FaultEvent(
                    start=0, kind=KIND_DEVICE_FAIL, target=d,
                    duration=1,
                )
                for d in range(4)
            ],
        )
        try:
            fabric.bind("lru", 0.0)
            result = _stream(fabric, pages, writes)
        finally:
            fabric.close()
        # Bypass-priced, not dropped: the totals still cover the
        # whole stream and every failed device's slice shows up in
        # its own failover (degraded) counters, all SSD-direct.
        assert result.accesses == pages.shape[0]
        for device in result.devices:
            assert device.failover_stats is not None
            assert device.failover_stats.accesses > 0
            assert device.failover_stats.misses == (
                device.failover_stats.accesses
            )

    def test_link_degradation_prices_only_the_window(
        self, chaos_workload
    ):
        config, _, pages, writes = chaos_workload

        def run(events):
            fabric = _fabric(config)
            _inject(fabric, events)
            try:
                fabric.bind("lru", 0.0)
                return _stream(fabric, pages, writes)
            finally:
                fabric.close()

        clean = run([])
        degraded = run(
            [
                FaultEvent(
                    start=0, kind=KIND_LINK_DEGRADE, target=0,
                    duration=2, magnitude=4.0,
                )
            ]
        )
        # Same bits, higher bill -- and only on the degraded device.
        assert degraded.totals == clean.totals
        assert degraded.devices[0].degraded_time_ns > 0
        assert degraded.devices[0].time_ns > clean.devices[0].time_ns
        for d in range(1, 4):
            assert degraded.devices[d].time_ns == clean.devices[d].time_ns


class TestFailslowDegradation:
    def _run(self, config, pages, writes, events):
        fabric = _fabric(config)
        _inject(fabric, events)
        try:
            fabric.bind("lru", 0.0)
            result = _stream(fabric, pages, writes)
            events_out = [
                (e.key, e.kind, e.chunk_index)
                for e in fabric.metrics.events()
            ]
            return result, events_out
        finally:
            fabric.close()

    def test_ramp_prices_only_the_target(self, chaos_workload):
        config, _, pages, writes = chaos_workload
        clean, _ = self._run(config, pages, writes, [])
        slow, events = self._run(
            config,
            pages,
            writes,
            [
                FaultEvent(
                    start=0, kind=KIND_DEVICE_FAILSLOW, target=3,
                    duration=4, magnitude=3.0,
                )
            ],
        )
        # Same bits, higher bill -- a fail-slow device still answers
        # correctly, it just answers slowly, and only it pays.
        assert slow.totals == clean.totals
        assert slow.devices[3].degraded_time_ns > 0
        assert slow.devices[3].time_ns > clean.devices[3].time_ns
        for d in range(3):
            assert slow.devices[d].time_ns == clean.devices[d].time_ns
        # The fabric stamps the ramp's edges on the timeline.
        assert ("device:3", "failslow-onset", 0) in events
        assert ("device:3", "failslow-cleared", 4) in events

    def test_watchdog_reset_restarts_cold(self, chaos_workload):
        """An outage beginning mid-ramp is a controller reset: the
        device must come back with wiped (cold) cache planes, unlike
        a plain outage whose cache survives."""
        config, _, pages, writes = chaos_workload
        # Mid-phase blip: the hot set is unchanged across it, so a
        # surviving cache re-hits immediately while a wiped one
        # re-faults the very pages it just held.
        blip = [
            FaultEvent(
                start=2, kind=KIND_DEVICE_FAIL, target=0, duration=1
            )
        ]
        warm, _ = self._run(config, pages, writes, blip)
        cold, _ = self._run(
            config,
            pages,
            writes,
            blip
            + [
                FaultEvent(
                    start=1, kind=KIND_DEVICE_FAILSLOW, target=0,
                    duration=6, magnitude=2.0,
                )
            ],
        )
        assert warm.accesses == cold.accesses == pages.shape[0]
        # Cold restart re-faults the working set the warm restart
        # still holds.
        assert cold.devices[0].stats.misses > warm.devices[0].stats.misses


class TestCorrelatedBlast:
    def test_blast_loses_zero_accesses(self, chaos_workload):
        config, _, pages, writes = chaos_workload
        fabric = _fabric(config)
        _inject(
            fabric,
            [
                FaultEvent(
                    start=2, kind=KIND_DEVICE_CORRELATED, target=d,
                    duration=2,
                )
                for d in (1, 2)
            ],
        )
        try:
            fabric.bind("lru", 0.0)
            result = _stream(fabric, pages, writes)
            kinds = [e.kind for e in fabric.metrics.events()]
            recovery = fabric.metrics.recovery_latencies(
                "device-down", "device-restored"
            )
        finally:
            fabric.close()
        # Half the fleet down together: everything still served, the
        # blast traffic re-homed onto the two survivors.
        assert result.accesses == pages.shape[0]
        for victim in (1, 2):
            assert result.devices[victim].failover_stats.accesses > 0
        assert kinds.count("device-down") == 2
        assert kinds.count("device-restored") == 2
        assert recovery == [2, 2]


class TestHealthMonitorRecovery:
    def test_quarantine_rehomes_then_reinstates(self, chaos_workload):
        """End-to-end monitor walk on a live fabric: a fail-slow ramp
        breaches the fleet median, the device is quarantined (its
        traffic re-homed score-aware like an outage), then probed and
        reinstated once the ramp clears -- with zero access loss."""
        config, _, pages, writes = chaos_workload
        fabric = _fabric(config, monitor=True)
        _inject(
            fabric,
            [
                FaultEvent(
                    start=2, kind=KIND_DEVICE_FAILSLOW, target=1,
                    duration=8, magnitude=8.0,
                )
            ],
        )
        try:
            fabric.bind("lru", 0.0)
            result = _stream(fabric, pages, writes, chunk=1_000)
            monitor = fabric.monitor
            kinds = [
                e.kind
                for e in fabric.metrics.events("device:1")
            ]
            failover = sum(
                d.failover_stats.accesses
                for d in result.devices
                if d.failover_stats is not None
            )
        finally:
            fabric.close()
        assert result.accesses == pages.shape[0]
        assert monitor.quarantines == 1
        assert monitor.reinstatements == 1
        # The sick device walked the full state machine, in order.
        walk = [
            "device-suspect",
            "device-quarantined",
            "device-probation",
            "device-reinstated",
        ]
        positions = [kinds.index(k) for k in walk]
        assert positions == sorted(positions)
        # Quarantined traffic was re-homed, not dropped.
        assert failover > 0
        # Nobody else was touched: one quarantine, one reinstatement.
        assert monitor.state(1) == "healthy"
        assert all(
            monitor.state(d) == "healthy" for d in range(4)
        )

    def test_monitor_idle_on_healthy_fleet(self, chaos_workload):
        """No faults: the monitor must not fire -- results match the
        monitor-free fabric bit for bit (modulo the chaos lens)."""
        config, _, pages, writes = chaos_workload
        plain = _fabric(config, chaos=None)
        watched = _fabric(config, chaos=None, monitor=True)
        try:
            plain.bind("lru", 0.0)
            watched.bind("lru", 0.0)
            reference = _stream(plain, pages, writes)
            candidate = _stream(watched, pages, writes)
            monitor = watched.monitor
        finally:
            plain.close()
            watched.close()
        assert monitor.quarantines == 0
        assert candidate.totals == reference.totals
        for ours, theirs in zip(
            candidate.devices, reference.devices, strict=True
        ):
            assert ours.stats == theirs.stats
            assert ours.time_ns == theirs.time_ns


def _prepared(pages, writes):
    from repro.core.pipeline import PreparedWorkload

    class _StubEngine:
        admission_threshold = 0.0

    return PreparedWorkload(
        name="recovery-prepared",
        page_indices=np.asarray(pages, dtype=np.int64),
        is_write=np.asarray(writes, dtype=bool),
        scores=np.zeros(pages.shape[0], dtype=np.float64),
        page_frequency_scores=np.zeros(
            pages.shape[0], dtype=np.float64
        ),
        engine=_StubEngine(),
    )


class TestPreparedChaos:
    def test_prepared_outage_loses_zero_accesses(self, chaos_workload):
        """The one-shot entry point survives faults by degrading to
        the chunked ingest path: outages fire and fail over exactly
        as on a streamed run."""
        config, _, pages, writes = chaos_workload
        fabric = _fabric(config)
        _inject(
            fabric,
            [
                FaultEvent(
                    start=1, kind=KIND_DEVICE_FAIL, target=2,
                    duration=3,
                )
            ],
        )
        try:
            result = fabric.run_prepared(
                _prepared(pages, writes), "lru", chunk_requests=2_000
            )
            kinds = [e.kind for e in fabric.metrics.events()]
        finally:
            fabric.close()
        assert result.accesses == pages.shape[0]
        assert result.devices[2].failover_stats.accesses > 0
        assert kinds.count("device-down") == 1
        assert kinds.count("device-restored") == 1

    def test_monitored_prepared_matches_streamed(self, chaos_workload):
        """A monitor (no injector) also routes run_prepared through
        the chunked path; counters must match a streamed run with the
        same chunking bit for bit."""
        config, _, pages, writes = chaos_workload
        streamed = _fabric(config, chaos=None, monitor=True)
        prepared = _fabric(config, chaos=None, monitor=True)
        try:
            streamed.bind("lru", 0.0)
            reference = _stream(streamed, pages, writes)
            candidate = prepared.run_prepared(
                _prepared(pages, writes), "lru", chunk_requests=2_000
            )
        finally:
            streamed.close()
            prepared.close()
        assert candidate.totals == reference.totals
        assert candidate.total_time_ns == reference.total_time_ns

    @pytest.mark.parametrize("monitor", [False, True], ids=["off", "on"])
    @pytest.mark.parametrize(
        "name", [n for n in SCENARIO_NAMES if n not in SERVING_SCENARIOS]
    )
    def test_prepared_scenario_matches_streamed(
        self, chaos_workload, name, monitor
    ):
        """Under every fabric scenario's sampled plan, with the
        monitor off and on, run_prepared's chunked path replays what
        hand-chunked ingest of the same marginals does: the same
        counters, priced and degraded time, failover traffic, fault
        timeline and events."""
        config, _, pages, writes = chaos_workload
        chunk = 500
        chaos = scenario_chaos(
            name, seed=0, horizon_chunks=-(-pages.shape[0] // chunk)
        )
        workload = _prepared(pages, writes)
        streamed = _fabric(config, chaos=chaos, monitor=monitor)
        prepared = _fabric(config, chaos=chaos, monitor=monitor)
        try:
            streamed.bind("lru", 0.0)
            reference = _stream(
                streamed, pages, writes, chunk=chunk,
                marginals=workload.page_frequency_scores,
            )
            candidate = prepared.run_prepared(
                workload, "lru", chunk_requests=chunk
            )
        finally:
            streamed.close()
            prepared.close()
        assert streamed.injector.records, "the plan must fire a fault"
        assert candidate.totals == reference.totals
        assert candidate.total_time_ns == reference.total_time_ns
        for ours, theirs in zip(candidate.devices, reference.devices):
            assert ours.failover_stats == theirs.failover_stats
            assert ours.degraded_time_ns == theirs.degraded_time_ns
        assert (
            prepared.injector.timeline_digest()
            == streamed.injector.timeline_digest()
        )
        assert [e.as_dict() for e in prepared.metrics.events()] == [
            e.as_dict() for e in streamed.metrics.events()
        ]

    @pytest.mark.parametrize("chunk", [0, -5])
    def test_nonpositive_chunk_is_rejected(self, chaos_workload, chunk):
        """A chunk size below 1 is refused up front: a negative step
        would replay an empty range and report a run that served
        nothing."""
        config, _, pages, writes = chaos_workload
        fabric = _fabric(config)
        try:
            with pytest.raises(ValueError, match="chunk_requests"):
                fabric.run_prepared(
                    _prepared(pages, writes), "lru", chunk_requests=chunk
                )
        finally:
            fabric.close()
        with pytest.raises(ValueError, match="chunk_requests"):
            run_fabric_scenario(
                ARMED, pages, writes, config=config, chunk_requests=chunk
            )


def _service(config, engine, serving, chaos=ARMED):
    return IcgmmCacheService(
        engine, config=config, serving=serving, chaos=chaos
    )


def _serving_config(**overrides):
    base = dict(
        chunk_requests=2_000,
        n_shards=4,
        sharding="hash",
        strategy="gmm-caching-eviction",
        refresh_enabled=True,
        refresh_cooldown_chunks=2,
    )
    base.update(overrides)
    return ServingConfig(**base)


class TestServingStalls:
    def test_stall_degrades_shard_chunk(self, chaos_workload):
        config, engine, pages, writes = chaos_workload
        serving = _serving_config()
        clean = _service(config, engine, serving, chaos=None)
        clean.ingest(pages, writes)

        stalled = _service(config, engine, serving)
        _inject(
            stalled,
            [FaultEvent(start=1, kind=KIND_SHARD_STALL, target=2)],
        )
        stalled.ingest(pages, writes)
        # Degraded to SSD-direct for one shard-chunk: every access
        # still accounted, misses strictly higher.
        assert stalled.totals.accesses == clean.totals.accesses
        assert stalled.totals.misses > clean.totals.misses
        events = stalled.shard_metrics.events("shard:2")
        assert [(e.kind, e.chunk_index, e.info) for e in events] == [
            ("stall-degraded", 1, {})
        ]
        # Exactly shard 2's accesses of chunk 1 were served degraded.
        step = serving.chunk_requests
        shard_ids, _ = stalled.planes.route(pages[step : 2 * step])
        degraded = stalled.shard_metrics.degraded_total("shard:2")
        assert degraded.accesses == int(np.count_nonzero(shard_ids == 2))
        assert degraded.misses == degraded.accesses


class TestRefreshFaults:
    def test_failed_build_backs_off_and_keeps_serving(
        self, chaos_workload
    ):
        config, engine, pages, writes = chaos_workload
        service = _service(config, engine, _serving_config())
        _inject(
            service,
            [FaultEvent(start=0, kind=KIND_REFRESH_FAIL, target=-1)],
        )
        service.ingest(pages, writes)
        assert service.totals.accesses == pages.shape[0]
        assert service._refresh_attempts >= 2
        engine_events = [
            e.kind for e in service.shard_metrics.events("engine")
        ]
        assert "refresh-failed" in engine_events
        # Build 1 was clean: the service recovered with a swap.
        assert "refresh-swap" in engine_events
        assert service.generation >= 1

    def test_corrupt_build_is_rejected_by_validation(
        self, chaos_workload
    ):
        config, engine, pages, writes = chaos_workload
        service = _service(config, engine, _serving_config())
        _inject(
            service,
            [
                FaultEvent(
                    start=0, kind=KIND_REFRESH_CORRUPT, target=-1
                )
            ],
        )
        service.ingest(pages, writes)
        failed = [
            e
            for e in service.shard_metrics.events("engine")
            if e.kind == "refresh-failed"
        ]
        assert failed and "finite" in failed[0].info["reason"]
        assert service.generation >= 1  # later clean build landed

    def test_breaker_opens_then_half_opens(self, chaos_workload):
        config, engine, pages, writes = chaos_workload
        serving = _serving_config(
            refresh_backoff_chunks=1,
            refresh_breaker_threshold=2,
            quarantine_chunks=2,
        )
        service = _service(config, engine, serving)
        _inject(
            service,
            [
                FaultEvent(
                    start=build, kind=KIND_REFRESH_FAIL, target=-1
                )
                for build in range(2)
            ],
        )
        service.ingest(pages, writes)
        kinds = [
            e.kind for e in service.shard_metrics.events("engine")
        ]
        assert kinds.count("refresh-failed") == 2
        assert "breaker-open" in kinds
        assert "breaker-close" in kinds
        assert kinds.index("breaker-open") < kinds.index(
            "breaker-close"
        )
        latencies = service.shard_metrics.recovery_latencies(
            "breaker-open", "breaker-close"
        )
        assert latencies and latencies[0] >= serving.quarantine_chunks
        # The breaker never took generation 0 out of service.
        assert service.totals.accesses == pages.shape[0]


class TestWorkerCountInvariance:
    # Hash sharding replays one plane per chunk; tenant sharding
    # (three tenants per phase of the stream at this stride) gives
    # the workers independent planes to fan out over.
    @pytest.mark.parametrize(
        "workers,sharding",
        [(2, "hash"), (4, "hash"), (2, "tenant"), (4, "tenant")],
        ids=["2", "4", "2-tenant", "4-tenant"],
    )
    def test_chaotic_run_is_bit_identical_across_workers(
        self, chaos_workload, workers, sharding
    ):
        config, engine, pages, writes = chaos_workload
        chaos = ChaosConfig(
            seed=13,
            horizon_chunks=8,
            shard_stall_rate=0.2,
            refresh_fail_rate=0.5,
        )

        def run(n_workers):
            serving = _serving_config(
                sharding=sharding,
                partition_pages=300,
                parallel=ParallelConfig(workers=n_workers),
            )
            service = _service(config, engine, serving, chaos=chaos)
            try:
                service.ingest(pages, writes)
                return (
                    service.totals,
                    service.generation,
                    service.injector.timeline_digest(),
                    [
                        e.as_dict()
                        for e in service.shard_metrics.events()
                    ],
                )
            finally:
                service.close()

        assert run(1) == run(workers)
