"""The resilience scorecard: every canonical fault scenario, gated.

One module-scoped run replays a two-tenant drift stream (1,200 hot
pages per tenant, seed 7, 64 sets, K = 8, 2,048-request chunks) under
each scenario of :data:`repro.chaos.SCENARIO_NAMES` with chaos seed
50, the seed whose plans land faults of every channel inside the
stream and ramp a single device on fail-slow (a sick *majority* would
contaminate the fleet median the health monitor judges against).
Fabric scenarios run with the fleet health monitor off and on (the
constants ``repro chaos --monitor`` ships), every cell bare and
observed, each against a no-fault baseline on the same path.  An
observed run carries a :class:`~repro.obs.Telemetry` bundle, which
attaches a stage profiler, so its lanes replay through the lane
loop's timed branch; its rows must equal the bare rows.  Faults are
planned over the leading 70 % of the stream so the trailing chunks
form a post-recovery window, except fail-slow, whose ramp runs to the
end of the stream: a sick device never recovers by waiting, so its
"tail" is the whole run and only quarantine can improve it.
"""

import numpy as np
import pytest

from repro.cache.setassoc import CacheGeometry
from repro.chaos import (
    SCENARIO_NAMES,
    SERVING_SCENARIOS,
    recovery_chunk,
    run_fabric_scenario,
    run_serving_scenario,
    scenario_chaos,
    tail_latency_us,
    tail_miss_rate,
)
from repro.core.config import (
    FabricTopology,
    GmmEngineConfig,
    IcgmmConfig,
    ServingConfig,
)
from repro.core.engine import GmmPolicyEngine
from repro.obs import Telemetry
from repro.traces.preprocess import transform_timestamps

CHUNK = 2_048
CHAOS_SEED = 50
OBSERVED = (False, True)

#: Post-recovery miss rate must stay within this factor (plus a small
#: absolute slack) of the no-fault baseline over the same chunks.
RECOVERY_FACTOR = 2.0
RECOVERY_SLACK = 0.02

#: Scenarios the monitor must leave untouched: nothing in them is
#: slow, so a quarantine would be a false positive.
HEALTHY_LATENCY_SCENARIOS = (
    "device_failure",
    "link_degrade",
    "device_correlated",
)


def _arms(name):
    return ("n/a",) if name in SERVING_SCENARIOS else ("off", "on")


def _row(out, base, recover_at):
    """One scorecard row: what the gates below read."""
    monitor = out.get("monitor") or {}
    fabric = "chunk_times_ns" in out
    return {
        "faults": len(out["timeline"]),
        "timeline_digest": out["timeline_digest"],
        "accesses": int(out["accesses"]),
        "miss_rate": out["miss_rate"],
        "baseline_miss_rate": base["miss_rate"],
        "tail_miss_rate": tail_miss_rate(
            out["chunk_counters"], recover_at
        ),
        "baseline_tail_miss_rate": tail_miss_rate(
            base["chunk_counters"], recover_at
        ),
        "tail_latency_us": (
            tail_latency_us(
                out["chunk_counters"], out["chunk_times_ns"], recover_at
            )
            if fabric
            else 0.0
        ),
        "chunk_counters": out["chunk_counters"],
        "baseline_chunk_counters": base["chunk_counters"],
        "failover_accesses": int(out.get("failover_accesses", 0)),
        "degraded_time_ns": int(out.get("degraded_time_ns", 0)),
        "quarantines": int(monitor.get("quarantines", 0)),
        "monitor_digest": monitor.get("decision_digest", ""),
        "events": len(out["events"]),
    }


@pytest.fixture(scope="module")
def scorecard(two_tenant_drift_stream):
    """``(n_accesses, rows)``; ``rows`` is keyed by ``(scenario,
    monitor arm, observed)``."""
    pages, writes, _ = two_tenant_drift_stream(24_000, 1_200, seed=7)
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
    n_train = 14_000
    timestamps = transform_timestamps(n_train, mode="prose")
    engine = GmmPolicyEngine.train(
        np.column_stack(
            [
                pages[:n_train].astype(np.float64),
                timestamps.astype(np.float64),
            ]
        ),
        gmm,
        np.random.default_rng(7),
    )
    topology = FabricTopology(n_devices=4)
    n_chunks = -(-pages.shape[0] // CHUNK)
    horizon = max(1, (7 * n_chunks) // 10)

    def run(name, chaos, observed, monitor=False):
        telemetry = Telemetry(seed=0) if observed else None
        if name in SERVING_SCENARIOS:
            # Quick backoff, late breaker: the refresh-failure
            # scenario must land a good build inside the stream.
            serving = ServingConfig(
                chunk_requests=CHUNK,
                n_shards=4,
                sharding="hash",
                strategy="gmm-caching-eviction",
                refresh_cooldown_chunks=2,
                refresh_backoff_chunks=1,
                refresh_breaker_threshold=4,
                quarantine_chunks=8,
            )
            return run_serving_scenario(
                chaos, engine, pages, writes,
                config=config, serving=serving,
                telemetry=telemetry,
            )
        return run_fabric_scenario(
            chaos, pages, writes,
            topology=topology, config=config, chunk_requests=CHUNK,
            monitor=monitor, telemetry=telemetry,
        )

    rows = {}
    for name in SCENARIO_NAMES:
        chaos = scenario_chaos(
            name,
            CHAOS_SEED,
            horizon_chunks=(
                n_chunks if name == "device_failslow" else horizon
            ),
        )
        for observed in OBSERVED:
            base = run(name, None, observed)
            outs = {
                arm: run(name, chaos, observed, monitor=arm == "on")
                for arm in _arms(name)
            }
            # One recovery window per cell, anchored on the
            # monitor-less run, so both arms price the same chunks.
            anchor = outs.get("off") or outs["n/a"]
            recover_at = recovery_chunk(
                anchor["timeline"], anchor["events"]
            )
            for arm, out in outs.items():
                rows[name, arm, observed] = _row(out, base, recover_at)
    return pages.shape[0], rows


#: Every ``(scenario, monitor arm, observed)`` row of the scorecard.
CELLS = [
    (name, arm, observed)
    for name in SCENARIO_NAMES
    for arm in _arms(name)
    for observed in OBSERVED
]


def _cell_id(cell):
    name, arm, observed = cell
    return f"{name}-{arm}-{'observed' if observed else 'bare'}"


@pytest.mark.parametrize("cell", CELLS, ids=_cell_id)
def test_every_scenario_observes_a_fault(scorecard, cell):
    _, rows = scorecard
    assert rows[cell]["faults"] >= 1


@pytest.mark.parametrize("cell", CELLS, ids=_cell_id)
def test_every_access_is_served(scorecard, cell):
    n_accesses, rows = scorecard
    assert rows[cell]["accesses"] == n_accesses


@pytest.mark.parametrize("cell", CELLS, ids=_cell_id)
def test_post_recovery_miss_rate_is_bounded(scorecard, cell):
    _, rows = scorecard
    row = rows[cell]
    base = row["baseline_tail_miss_rate"]
    bound = max(RECOVERY_FACTOR * base, base + RECOVERY_SLACK)
    assert row["tail_miss_rate"] <= bound


@pytest.mark.parametrize("name", ["device_failure", "device_correlated"])
@pytest.mark.parametrize("arm", ["off", "on"])
@pytest.mark.parametrize("observed", OBSERVED, ids=["bare", "observed"])
def test_failed_device_traffic_fails_over(scorecard, name, arm, observed):
    _, rows = scorecard
    assert rows[name, arm, observed]["failover_accesses"] > 0


@pytest.mark.parametrize(
    "cell", [cell for cell in CELLS if cell[1] == "on"], ids=_cell_id
)
def test_monitor_rows_carry_a_decision_digest(scorecard, cell):
    _, rows = scorecard
    assert rows[cell]["monitor_digest"]


@pytest.mark.parametrize("observed", OBSERVED, ids=["bare", "observed"])
def test_failslow_quarantine_beats_waiting(scorecard, observed):
    _, rows = scorecard
    off = rows["device_failslow", "off", observed]
    on = rows["device_failslow", "on", observed]
    assert on["quarantines"] >= 1
    assert on["tail_miss_rate"] < off["tail_miss_rate"]
    assert on["tail_latency_us"] < off["tail_latency_us"]


@pytest.mark.parametrize("name", HEALTHY_LATENCY_SCENARIOS)
@pytest.mark.parametrize("observed", OBSERVED, ids=["bare", "observed"])
def test_monitor_makes_no_false_quarantines(scorecard, name, observed):
    """Off the fail-slow scenario the armed monitor changes nothing
    (a correlated blast may still log suspect/cleared transitions)."""
    _, rows = scorecard
    off = rows[name, "off", observed]
    on = rows[name, "on", observed]
    assert on["quarantines"] == 0
    for field in (
        "accesses",
        "miss_rate",
        "tail_miss_rate",
        "tail_latency_us",
        "failover_accesses",
        "degraded_time_ns",
    ):
        assert on[field] == off[field], field


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_observed_rows_equal_bare_rows(scorecard, name):
    """Telemetry observes without perturbing: every row, counters and
    digests included, is the same with the bundle attached."""
    _, rows = scorecard
    for arm in _arms(name):
        assert rows[name, arm, True] == rows[name, arm, False], arm
