"""Canonical chaos scenarios shared by the scorecard tests and CLI.

Each scenario activates exactly one fault channel of
:class:`~repro.core.config.ChaosConfig` at a rate tuned to fire a
handful of events over a typical run, and a runner drives the victim
layer chunk by chunk, collecting everything the scorecard needs: the
observed fault timeline (and its digest), per-chunk miss counters (so
post-recovery windows can be priced against a no-fault baseline over
the *same* chunk range), degraded/failover traffic, and refresh
counters.  Everything is deterministic in the chaos seed;
``tests/chaos/test_scorecard.py`` gates the rows (no access lost,
bounded post-recovery miss rate, failover engaged, quarantine
beating waiting).
"""

from __future__ import annotations

import numpy as np

from repro.chaos.injector import FaultInjector
from repro.chaos.plan import (
    KIND_DEVICE_CORRELATED,
    KIND_DEVICE_FAIL,
    KIND_DEVICE_FAILSLOW,
    KIND_LINK_DEGRADE,
    KIND_SHARD_STALL,
)
from repro.core.config import (
    ChaosConfig,
    FabricTopology,
    IcgmmConfig,
    ServingConfig,
)
from repro.cxl.fabric import CxlFabric
from repro.serving.health import DECISION_EVENTS

#: Scenario name -> the single fault channel it exercises.
SCENARIO_NAMES = (
    "device_failure",
    "link_degrade",
    "device_correlated",
    "device_failslow",
    "shard_stall",
    "refresh_failure",
)

#: The scenarios that drive the serving loop; the rest drive the
#: fabric.
SERVING_SCENARIOS = ("shard_stall", "refresh_failure")

_SCENARIO_OVERRIDES: dict[str, dict] = {
    # Outages of a few chunks; failover must serve every access.
    "device_failure": {
        "device_fail_rate": 0.08,
        "device_fail_chunks": 4,
    },
    # Link round-trips priced at LINK_DEGRADE_FACTOR (4x) inside
    # degradation windows.
    "link_degrade": {
        "link_degrade_rate": 0.10,
        "link_degrade_chunks": 4,
    },
    # A stalled shard's accesses go SSD-direct for that chunk.
    "shard_stall": {
        "shard_stall_rate": 0.08,
    },
    # Roughly half the builds refuse (raise or corrupt); backoff
    # keeps the deployed generation serving until a build lands, so
    # the tail still recovers to near-baseline miss rates.
    "refresh_failure": {
        "refresh_fail_rate": 0.3,
        "refresh_corrupt_rate": 0.2,
    },
    # Correlated blasts: CORRELATED_FAIL_K devices drop together
    # (shared enclosure / switch), so failover re-homes a
    # multi-device traffic share at once and must still serve every
    # access.
    "device_correlated": {
        "correlated_fail_rate": 0.12,
    },
    # Fail-slow: the window length clamps to the horizon end, so a
    # sick device keeps ramping (up to the max factor, with watchdog
    # reset blips) until the run ends -- the regime where
    # health-driven quarantine pays and recovery-by-waiting does
    # not.  The rate is per device per chunk; it is tuned low so a
    # typical run sickens a strict minority of the fleet and the
    # median stays a healthy reference.
    "device_failslow": {
        "failslow_rate": 0.02,
    },
}


def scenario_chaos(
    name: str, seed: int = 0, horizon_chunks: int | None = None
) -> ChaosConfig:
    """The canonical single-channel :class:`ChaosConfig` of ``name``.

    Pass ``horizon_chunks`` (the run's actual chunk count) so the
    plan's fault density lands inside the stream rather than being
    diluted over the default 256-chunk horizon.
    """
    if name not in _SCENARIO_OVERRIDES:
        raise ValueError(
            f"unknown scenario {name!r};"
            f" expected one of {SCENARIO_NAMES}"
        )
    kwargs = dict(_SCENARIO_OVERRIDES[name])
    if horizon_chunks is not None:
        kwargs["horizon_chunks"] = horizon_chunks
    return ChaosConfig(seed=seed, **kwargs)


def last_fault_end(timeline: list[dict]) -> int:
    """First chunk index with no fault active (``0`` if none fired)."""
    end = 0
    for event in timeline:
        end = max(end, event["start"] + event["duration"])
    return end


#: Fault kinds whose ``start``/``duration`` tick is the chunk index.
#: Refresh faults tick on the *build* index and are located via the
#: chunk-stamped failure events instead.
_CHUNK_CLOCKED = (
    KIND_DEVICE_FAIL,
    KIND_DEVICE_CORRELATED,
    KIND_DEVICE_FAILSLOW,
    KIND_LINK_DEGRADE,
    KIND_SHARD_STALL,
)


def recovery_chunk(timeline: list[dict], events: list[dict]) -> int:
    """First chunk with every observed fault behind it.

    Takes the later of the last chunk-clocked fault window's end and
    the last recorded failure/recovery event (which covers
    build-indexed refresh faults: their ``FailureEvent`` records
    carry the chunk they hit).  The health monitor's decisions are
    not faults and do not move the window, so a run with the monitor
    and one without it price the same tail chunks.
    """
    end = last_fault_end(
        [e for e in timeline if e["kind"] in _CHUNK_CLOCKED]
    )
    for event in events:
        if event["kind"] not in DECISION_EVENTS:
            end = max(end, event["chunk_index"] + 1)
    return end


def tail_miss_rate(
    chunk_counters: list[tuple[int, int]], from_chunk: int
) -> float:
    """Miss rate of the chunks at index ``from_chunk`` and later.

    ``chunk_counters`` is the runner's per-chunk ``(accesses,
    misses)`` record; the post-recovery window is everything after
    the last scheduled fault cleared.  Falls back to the whole run
    when the tail is empty (a fault window reaching the final chunk).
    """
    tail = chunk_counters[from_chunk:]
    accesses = sum(row[0] for row in tail)
    if accesses == 0:
        tail = chunk_counters
        accesses = sum(row[0] for row in tail)
    if accesses == 0:
        return 0.0
    return sum(row[1] for row in tail) / accesses


def tail_latency_us(
    chunk_counters: list[tuple[int, int]],
    chunk_times_ns: list[int],
    from_chunk: int,
) -> float:
    """Per-access priced latency at chunk ``from_chunk`` and later.

    ``chunk_times_ns`` is the runner's per-chunk priced service-time
    record (premiums included), aligned with ``chunk_counters``.
    Falls back to the whole run when the tail is empty -- which is
    the interesting case for fail-slow: a ramp clamped to the horizon
    never clears, so the scorecard prices the entire degraded run.
    """
    tail_counters = chunk_counters[from_chunk:]
    tail_times = chunk_times_ns[from_chunk:]
    accesses = sum(row[0] for row in tail_counters)
    if accesses == 0:
        tail_counters = chunk_counters
        tail_times = chunk_times_ns
        accesses = sum(row[0] for row in tail_counters)
    if accesses == 0:
        return 0.0
    return sum(tail_times) / accesses / 1_000.0


def _injector_report(injector: FaultInjector | None) -> dict:
    if injector is None:
        return {"timeline": [], "timeline_digest": ""}
    return {
        "timeline": injector.timeline(),
        "timeline_digest": injector.timeline_digest(),
    }


def run_fabric_scenario(
    chaos: ChaosConfig | None,
    pages: np.ndarray,
    is_write: np.ndarray,
    *,
    topology: FabricTopology | None = None,
    config: IcgmmConfig | None = None,
    strategy: str = "lru",
    admission_threshold: float = 0.0,
    scores: np.ndarray | None = None,
    page_marginals: np.ndarray | None = None,
    chunk_requests: int = 4096,
    monitor: bool = False,
    telemetry=None,
) -> dict:
    """Stream a workload through a (possibly faulty) fabric.

    Pass ``chaos=None`` for the no-fault baseline: the identical
    ingest path runs with the injector absent, which the parity suite
    asserts is bit-identical to the pre-chaos fabric.  ``monitor``
    arms the :class:`~repro.serving.health.FleetHealthMonitor`; the
    scorecard crosses every fault scenario with monitor on/off, so
    both arms flow through this one runner.  Raises
    :class:`ValueError` when ``chunk_requests < 1``.
    """
    if chunk_requests < 1:
        raise ValueError("chunk_requests must be >= 1")
    pages = np.asarray(pages, dtype=np.int64)
    is_write = np.asarray(is_write, dtype=bool)
    fabric = CxlFabric(
        topology=topology,
        config=config,
        chaos=chaos,
        monitor=monitor,
        telemetry=telemetry,
    )
    fabric.bind(strategy, admission_threshold)
    chunk_counters: list[tuple[int, int]] = []
    chunk_times_ns: list[int] = []
    previous_time_ns = 0
    for start in range(0, pages.shape[0], chunk_requests):
        sl = slice(start, start + chunk_requests)
        stats = fabric.ingest(
            pages[sl],
            is_write[sl],
            scores=scores[sl] if scores is not None else None,
            page_marginals=(
                page_marginals[sl] if page_marginals is not None else None
            ),
        )
        chunk_counters.append((stats.accesses, stats.misses))
        total_time_ns = fabric.results().total_time_ns
        chunk_times_ns.append(total_time_ns - previous_time_ns)
        previous_time_ns = total_time_ns
    result = fabric.results()
    return {
        "accesses": result.accesses,
        "miss_rate": result.totals.miss_rate,
        "total_time_ns": result.total_time_ns,
        "failover_accesses": sum(
            d.failover_stats.accesses
            for d in result.devices
            if d.failover_stats is not None
        ),
        "degraded_time_ns": sum(d.degraded_time_ns for d in result.devices),
        "chunk_counters": chunk_counters,
        "chunk_times_ns": chunk_times_ns,
        "events": [event.as_dict() for event in fabric.metrics.events()],
        "device_recovery_chunks": (
            fabric.metrics.recovery_latencies(
                "device-down", "device-restored"
            )
        ),
        "quarantine_recovery_chunks": (
            fabric.metrics.recovery_latencies(
                "device-quarantined", "device-reinstated"
            )
        ),
        "monitor": (
            fabric.monitor.summary() if fabric.monitor is not None else None
        ),
        **_injector_report(fabric.injector),
    }


def run_serving_scenario(
    chaos: ChaosConfig | None,
    engine,
    pages: np.ndarray,
    is_write: np.ndarray,
    *,
    config: IcgmmConfig | None = None,
    serving: ServingConfig | None = None,
    measure_from: int = 0,
    telemetry=None,
) -> dict:
    """Stream a workload through a (possibly faulty) serving loop.

    ``chaos=None`` is the no-fault baseline on the identical path.
    """
    from repro.serving.service import IcgmmCacheService

    pages = np.asarray(pages, dtype=np.int64)
    is_write = np.asarray(is_write, dtype=bool)
    service = IcgmmCacheService(
        engine,
        config=config,
        serving=serving,
        measure_from=measure_from,
        chaos=chaos,
        telemetry=telemetry,
    )
    reports = service.ingest(pages, is_write)
    summary = service.summary()
    chaos_section = summary.get(
        "chaos",
        {
            "timeline": [],
            "timeline_digest": "",
            "events": [],
            "refresh_attempts": 0,
            "refresh_failures": 0,
            "recovery_latency_chunks": [],
        },
    )
    return {
        "accesses": service.totals.accesses,
        "miss_rate": service.totals.miss_rate,
        "generation": service.generation,
        "swaps": len(service.swaps),
        "chunk_counters": [
            (report.stats.accesses, report.stats.misses)
            for report in reports
        ],
        "timeline": chaos_section["timeline"],
        "timeline_digest": chaos_section["timeline_digest"],
        "events": chaos_section["events"],
        "refresh_attempts": chaos_section["refresh_attempts"],
        "refresh_failures": chaos_section["refresh_failures"],
        "breaker_recovery_chunks": chaos_section[
            "recovery_latency_chunks"
        ],
    }
