"""Adapters binding existing components into the telemetry layer.

Each ``register_*`` function installs a **pull collector** on a
:class:`~repro.obs.registry.MetricsRegistry` that reads a component's
already-maintained accumulators (``RollingMetrics`` windows,
``StageProfiler`` sections, ``ParallelExecutor`` counters,
``FaultInjector`` timeline, ``ModelRefresher`` build counts) and sets
the corresponding instruments at collection time.  Nothing here runs
on a hot path, and nothing here imports the component modules: the
sources are duck-typed, so ``repro.obs`` stays a leaf package the
serving/fabric/chaos layers can import without cycles.

Collectors only ``set`` values derived from their source's current
state, so repeated collection is idempotent and re-registering after
a component reset simply rebinds the same families.
"""

from __future__ import annotations

from repro.obs.registry import MetricsRegistry


def register_rolling(
    registry: MetricsRegistry, rolling, scope: str
) -> None:
    """Export a ``RollingMetrics``'s snapshot under ``scope``.

    One gauge family per snapshot column, labeled ``(scope, key)`` so
    shard and tenant views of the same service coexist; the degraded
    lens appears only for keys that actually served degraded traffic
    (mirroring ``snapshot()``'s conditional fields).
    """
    miss = registry.gauge(
        "rolling_miss_ratio",
        help="Rolling-window miss ratio per shard/tenant key.",
        labels=("scope", "key"),
    )
    latency = registry.gauge(
        "rolling_latency_us",
        help="Rolling-window Table 1 average access time.",
        labels=("scope", "key"),
    )
    share = registry.gauge(
        "rolling_traffic_share",
        help="Key's share of rolling-window accesses.",
        labels=("scope", "key"),
    )
    accesses = registry.counter(
        "rolling_accesses_total",
        help="Accesses in the rolling window per key.",
        labels=("scope", "key"),
    )
    degraded_accesses = registry.counter(
        "rolling_degraded_accesses_total",
        help="Accesses served in degraded mode per key.",
        labels=("scope", "key"),
    )
    degraded_miss = registry.gauge(
        "rolling_degraded_miss_ratio",
        help="Miss ratio over degraded-mode traffic per key.",
        labels=("scope", "key"),
    )
    events = registry.gauge(
        "rolling_events_count",
        help="Failure/recovery transitions recorded.",
        labels=("scope",),
    )

    def collect() -> None:
        snapshot = rolling.snapshot()
        for key in sorted(snapshot):
            row = snapshot[key]
            miss.labels(scope=scope, key=key).set(row["miss_rate"])
            latency.labels(scope=scope, key=key).set(
                row["latency_us"]
            )
            share.labels(scope=scope, key=key).set(
                row["traffic_share"]
            )
            accesses.labels(scope=scope, key=key).set(
                row["accesses"]
            )
            if "degraded_accesses" in row:
                degraded_accesses.labels(scope=scope, key=key).set(
                    row["degraded_accesses"]
                )
                degraded_miss.labels(scope=scope, key=key).set(
                    row["degraded_miss_rate"]
                )
        events.labels(scope=scope).set(len(rolling.events()))

    registry.register_collector(collect)


def rolling_event_source(rolling, scope: str):
    """Event-source callable over a ``RollingMetrics`` timeline.

    Returns the canonical event dict form the exporters consume
    (``info`` nested, keys sorted) -- the bridge satellite that turns
    chaos fault windows into trace slices.
    """

    def events() -> list[dict]:
        return [
            {
                "scope": scope,
                "key": event.key,
                "kind": event.kind,
                "chunk_index": int(event.chunk_index),
                "info": dict(sorted(event.info.items())),
            }
            for event in rolling.events()
        ]

    return events


def register_stage_profiler(
    registry: MetricsRegistry, profiler
) -> None:
    """Export a ``StageProfiler``'s sections.

    Call counts are logical (deterministic); wall-clock seconds are
    flagged non-deterministic so they never enter the snapshot
    digest.
    """
    seconds = registry.gauge(
        "stage_wall_seconds",
        help="Accumulated wall-clock per pipeline stage section.",
        labels=("stage",),
        deterministic=False,
    )
    calls = registry.gauge(
        "stage_calls_count",
        help="Entries into each pipeline stage section.",
        labels=("stage",),
    )

    def collect() -> None:
        for name in sorted(profiler.seconds):
            seconds.labels(stage=name).set(profiler.seconds[name])
            calls.labels(stage=name).set(profiler.calls.get(name, 0))

    registry.register_collector(collect)


def register_executor(
    registry: MetricsRegistry, executor, component: str
) -> None:
    """Export a ``ParallelExecutor``'s replay rounds and tasks
    (logical counters, identical run for run)."""
    rounds = registry.counter(
        "executor_dispatch_rounds_total",
        help="Fan-out calls issued by the executor.",
        labels=("component",),
    )
    tasks = registry.counter(
        "executor_tasks_total",
        help="Tasks/items submitted across all fan-out calls.",
        labels=("component",),
    )

    def collect() -> None:
        rounds.labels(component=component).set(
            executor.dispatch_rounds
        )
        tasks.labels(component=component).set(
            executor.tasks_dispatched
        )

    registry.register_collector(collect)


def register_injector(registry: MetricsRegistry, injector) -> None:
    """Export a ``FaultInjector``'s observed timeline as per-kind
    fault counts (the timeline digest itself stays the chaos
    harness's own artifact)."""
    faults = registry.counter(
        "chaos_faults_total",
        help="Faults that actually fired, by plan kind.",
        labels=("kind",),
    )

    def collect() -> None:
        counts: dict[str, int] = {}
        for event in injector.timeline():
            kind = event["kind"]
            counts[kind] = counts.get(kind, 0) + 1
        for kind in sorted(counts):
            faults.labels(kind=kind).set(counts[kind])

    registry.register_collector(collect)


def register_health_monitor(
    registry: MetricsRegistry, monitor
) -> None:
    """Export a ``FleetHealthMonitor``'s counters and fleet states.

    Quarantine/reinstatement/suspect counts are logical decisions
    (bit-identical run for run, as the monitor's own decision digest
    records); the per-state device counts give an operator the live
    fleet shape.
    """
    quarantines = registry.counter(
        "health_quarantines_total",
        help="Devices pulled from placement by the monitor.",
    )
    reinstatements = registry.counter(
        "health_reinstatements_total",
        help="Devices returned to service after clean probation.",
    )
    suspects = registry.counter(
        "health_suspects_total",
        help="Breach streaks opened (first breach observations).",
    )
    devices = registry.gauge(
        "health_devices_count",
        help="Devices currently in each monitor state.",
        labels=("state",),
    )

    def collect() -> None:
        quarantines.set(monitor.quarantines)
        reinstatements.set(monitor.reinstatements)
        suspects.set(monitor.suspects)
        counts: dict[str, int] = {}
        for device in range(monitor.n_devices):
            state = monitor.state(device)
            counts[state] = counts.get(state, 0) + 1
        for state in sorted(counts):
            devices.labels(state=state).set(counts[state])

    registry.register_collector(collect)


def register_refresher(registry: MetricsRegistry, refresher) -> None:
    """Export a ``ModelRefresher``'s build/buffer state."""
    built = registry.counter(
        "refresher_builds_total",
        help="Refreshed engines successfully built.",
    )
    attempted = registry.counter(
        "refresher_build_attempts_total",
        help="Build invocations, including failed folds.",
    )
    buffered = registry.gauge(
        "refresher_buffered_samples_count",
        help="Feature rows currently buffered for the next fold-in.",
    )

    def collect() -> None:
        built.set(refresher.refreshes_built)
        attempted.set(refresher.builds_attempted)
        buffered.set(refresher.buffered_samples)

    registry.register_collector(collect)
