"""Chaos-recovery benchmark v2: the fleet resilience scorecard.

A phase-shifted two-tenant stream is replayed under each canonical
fault scenario (`repro.chaos.scenarios`) against its victim layer:
device failures, link degradation, correlated blasts and fail-slow
ramps against the multi-device :class:`repro.cxl.fabric.CxlFabric`
(streamed *and* -- for ``prepared_failure`` -- through the one-shot
``run_prepared`` path), shard stalls, refresh-build faults and worker
crashes against the :class:`repro.serving.IcgmmCacheService`.  Every
fabric-layer scenario is crossed with the
:class:`~repro.serving.FleetHealthMonitor` armed and disarmed, every
cell runs at workers=1 and workers=4 plus a no-fault baseline per
layer, and the emitted ``BENCH_chaos_recovery.json`` scorecard bakes
in the acceptance gates:

1. **determinism** -- the same chaos seed produces byte-identical
   scenario rows (fault timeline digest, counters, miss rates, and
   the monitor's decision digest) at every worker count;
2. **zero loss** -- every scenario row, in every monitor arm, serves
   *every* access of the stream;
3. **recovery** -- every scenario's post-recovery (tail) miss rate is
   bounded against the no-fault baseline over the same chunks;
4. **fail-slow response** -- under ``device_failslow`` the
   monitor-on arm's tail miss rate *and* tail latency are strictly
   better than monitor-off (quarantine must beat riding out the
   ramp + watchdog resets), with at least one quarantine decision;
5. **prepared parity** -- with chaos disabled, ``run_prepared``
   reproduces the streamed fabric baseline byte for byte;
6. **crash transparency** -- worker crashes inside the retry budget
   leave totals bit-identical to the fault-free run, with retries
   observed.

Usage::

    PYTHONPATH=src python benchmarks/bench_chaos_recovery.py           # full
    PYTHONPATH=src python benchmarks/bench_chaos_recovery.py --smoke   # quick
    PYTHONPATH=src python benchmarks/bench_chaos_recovery.py --validate out.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from repro.cache.setassoc import CacheGeometry
from repro.chaos import (
    PREPARED_SCENARIOS,
    SCENARIO_NAMES,
    SERVING_SCENARIOS,
    recovery_chunk,
    run_fabric_scenario,
    run_prepared_scenario,
    run_serving_scenario,
    scenario_chaos,
    tail_latency_us,
    tail_miss_rate,
)
from repro.core.config import (
    FabricTopology,
    FleetHealthConfig,
    GmmEngineConfig,
    IcgmmConfig,
    ParallelConfig,
    ServingConfig,
)
from repro.core.engine import GmmPolicyEngine
from repro.serving.health import MISS_THRESHOLD
from repro.traces.preprocess import transform_timestamps
from repro.traces.synthetic import ZipfSampler

#: Tenant partition stride in pages.
PARTITION = 1 << 20

#: Post-recovery miss rate must stay within this factor (plus a small
#: absolute slack) of the no-fault baseline over the same chunks.
RECOVERY_FACTOR = 2.0
RECOVERY_SLACK = 0.02

#: Worker counts every scenario replays at (determinism gate).
WORKER_COUNTS = (1, 4)

#: The fleet health monitor armed in every ``monitor="on"`` cell.
#: The latency threshold must clear the fleet's *natural* skew --
#: cache warm-up and tenant phase shifts push the slowest healthy
#: device to ~1.9x the fleet median on this stream -- while still
#: tripping early on a fail-slow ramp (peak multiplier 8x, watchdog
#: resets from 4x): a 2.5x median breach held for 3 chunks
#: quarantines the ramping device before its reset blips start.
HEALTH = FleetHealthConfig(
    latency_threshold=2.5,
    breach_chunks=3,
    quarantine_chunks=8,
    probation_chunks=3,
)

#: Schema of every per-scenario entry in ``scenarios``.
ROW_SCHEMA = {
    "scenario": str,
    "layer": str,
    "monitor": str,
    "workers": int,
    "faults": int,
    "timeline_digest": str,
    "accesses": int,
    "miss_rate": float,
    "baseline_miss_rate": float,
    "tail_miss_rate": float,
    "baseline_tail_miss_rate": float,
    "tail_latency_us": float,
    "baseline_tail_latency_us": float,
    "recovery_chunk": int,
    "failover_accesses": int,
    "degraded_time_ns": int,
    "worker_retries": int,
    "refresh_failures": int,
    "quarantines": int,
    "reinstatements": int,
    "monitor_digest": str,
    "events": int,
}


def build_stream(n_phase: int, hot_pages: int, seed: int):
    """Two-tenant stream whose second tenant drifts at the midpoint.

    The drift keeps the refresh loop busy, which is what the
    refresh-fault channel targets; the fabric scenarios replay the
    same pages.  Returns ``(pages, is_write)``.
    """
    rng = np.random.default_rng(seed)
    stable = ZipfSampler(
        base_page=0, n_pages=hot_pages, alpha=1.2, write_fraction=0.3
    )
    moving_a = ZipfSampler(
        base_page=PARTITION,
        n_pages=hot_pages,
        alpha=1.2,
        write_fraction=0.1,
    )
    moving_b = ZipfSampler(
        base_page=PARTITION + 4 * hot_pages,
        n_pages=hot_pages,
        alpha=1.2,
        write_fraction=0.1,
    )

    def interleave(moving, n):
        choice = rng.random(n) < 0.5
        p0, w0 = stable.sample(int(np.sum(~choice)), rng)
        p1, w1 = moving.sample(int(np.sum(choice)), rng)
        pages = np.empty(n, dtype=np.int64)
        writes = np.empty(n, dtype=bool)
        pages[~choice], writes[~choice] = p0, w0
        pages[choice], writes[choice] = p1, w1
        return pages, writes

    pages_a, writes_a = interleave(moving_a, n_phase)
    pages_b, writes_b = interleave(moving_b, n_phase)
    return (
        np.concatenate([pages_a, pages_b]),
        np.concatenate([writes_a, writes_b]),
    )


def train_engine(pages, n_train, gmm_config, seed):
    """Offline-train an engine on the stream's leading slice."""
    timestamps = transform_timestamps(n_train, mode="prose")
    features = np.column_stack(
        [
            pages[:n_train].astype(np.float64),
            timestamps.astype(np.float64),
        ]
    )
    return GmmPolicyEngine.train(
        features, gmm_config, np.random.default_rng(seed)
    )


def _row(name, layer, monitor_arm, workers, out, base, recover_at):
    monitor = out.get("monitor") or {}
    return {
        "scenario": name,
        "layer": layer,
        "monitor": monitor_arm,
        "workers": workers,
        "faults": len(out["timeline"]),
        "timeline_digest": out["timeline_digest"],
        "accesses": int(out["accesses"]),
        "miss_rate": round(out["miss_rate"], 6),
        "baseline_miss_rate": round(base["miss_rate"], 6),
        "tail_miss_rate": round(
            tail_miss_rate(out["chunk_counters"], recover_at)
            if "chunk_counters" in out
            else out["miss_rate"],
            6,
        ),
        "baseline_tail_miss_rate": round(
            tail_miss_rate(base["chunk_counters"], recover_at)
            if "chunk_counters" in base
            else base["miss_rate"],
            6,
        ),
        "tail_latency_us": round(
            tail_latency_us(
                out["chunk_counters"],
                out["chunk_times_ns"],
                recover_at,
            )
            if "chunk_times_ns" in out
            else 0.0,
            3,
        ),
        "baseline_tail_latency_us": round(
            tail_latency_us(
                base["chunk_counters"],
                base["chunk_times_ns"],
                recover_at,
            )
            if "chunk_times_ns" in base
            else 0.0,
            3,
        ),
        "recovery_chunk": int(recover_at),
        "failover_accesses": int(out.get("failover_accesses", 0)),
        "degraded_time_ns": int(out.get("degraded_time_ns", 0)),
        "worker_retries": int(out["worker_retries"]),
        "refresh_failures": int(out.get("refresh_failures", 0)),
        "quarantines": int(monitor.get("quarantines", 0)),
        "reinstatements": int(monitor.get("reinstatements", 0)),
        "monitor_digest": monitor.get("decision_digest", ""),
        "events": len(out["events"]),
    }


def run(smoke: bool, seed: int = 7, chaos_seed: int = 0) -> dict:
    """Run the full bench; returns the JSON payload."""
    if smoke:
        n_phase, hot_pages, n_train = 24_000, 1_200, 14_000
        n_sets = 64
        chunk = 2_048
        gmm = GmmEngineConfig(
            n_components=8, max_iter=20, max_train_samples=8_000
        )
    else:
        n_phase, hot_pages, n_train = 60_000, 2_400, 36_000
        n_sets = 128
        chunk = 4_096
        gmm = GmmEngineConfig(
            n_components=12, max_iter=30, max_train_samples=16_000
        )
    pages, writes = build_stream(n_phase, hot_pages, seed=seed)
    n_chunks = -(-pages.shape[0] // chunk)
    # Faults are planned over the leading 70% of the stream so the
    # trailing chunks form a clean post-recovery window -- except the
    # fail-slow scenario, whose ramps deliberately clamp to the *end*
    # of the stream: a sick device never recovers by waiting, so its
    # "tail" is the whole run and only quarantine can improve it.
    horizon = max(1, (7 * n_chunks) // 10)
    scenario_horizons = {
        name: (n_chunks if name == "device_failslow" else horizon)
        for name in SCENARIO_NAMES
    }

    geometry = CacheGeometry(
        capacity_bytes=n_sets * 8 * 4096,
        block_bytes=4096,
        associativity=8,
    )
    config = IcgmmConfig(geometry=geometry, gmm=gmm)
    topology = FabricTopology(n_devices=4)
    engine = train_engine(pages, n_train, gmm, seed)

    def parallel_for(workers):
        return ParallelConfig(workers=workers, max_retries=2)

    def serving_for(workers):
        return ServingConfig(
            chunk_requests=chunk,
            n_shards=4,
            sharding="hash",
            partition_pages=PARTITION,
            strategy="gmm-caching-eviction",
            refresh_cooldown_chunks=2,
            # Quick backoff, late breaker: the refresh-failure
            # scenario must land a good build inside the stream (the
            # breaker path is exercised deterministically in
            # tests/chaos).
            refresh_backoff_chunks=1,
            refresh_breaker_threshold=4,
            quarantine_chunks=8,
            parallel=parallel_for(workers),
        )

    def run_one(name, chaos, workers, health=None):
        if name in SERVING_SCENARIOS:
            return run_serving_scenario(
                chaos, engine, pages, writes,
                config=config, serving=serving_for(workers),
            )
        if name in PREPARED_SCENARIOS:
            return run_prepared_scenario(
                chaos, pages, writes,
                topology=topology, config=config,
                chunk_requests=chunk,
                parallel=parallel_for(workers),
                health=health,
            )
        return run_fabric_scenario(
            chaos, pages, writes,
            topology=topology, config=config,
            chunk_requests=chunk,
            parallel=parallel_for(workers),
            health=health,
        )

    rows = []
    for name in SCENARIO_NAMES:
        if name in SERVING_SCENARIOS:
            layer, arms = "serving", ("n/a",)
        elif name in PREPARED_SCENARIOS:
            layer, arms = "prepared", ("off", "on")
        else:
            layer, arms = "fabric", ("off", "on")
        chaos = scenario_chaos(
            name, chaos_seed, horizon_chunks=scenario_horizons[name]
        )
        for workers in WORKER_COUNTS:
            base = run_one(name, None, workers)
            outs = {}
            for arm in arms:
                outs[arm] = run_one(
                    name,
                    chaos,
                    workers,
                    health=HEALTH if arm == "on" else None,
                )
            # One recovery window per cell, anchored on the
            # monitor-less observation so both arms price the same
            # chunk range (the monitor's own transitions must not
            # move the goalposts of its comparison).
            anchor = outs.get("off") or next(iter(outs.values()))
            recover_at = recovery_chunk(
                anchor["timeline"], anchor["events"]
            )
            for arm in arms:
                row = _row(
                    name, layer, arm, workers,
                    outs[arm], base, recover_at,
                )
                rows.append(row)
                print(
                    f"{name:18s} w={workers} mon={arm:3s}"
                    f"  faults {row['faults']:2d}"
                    f"  miss {100 * row['miss_rate']:6.2f}%"
                    f" (base {100 * row['baseline_miss_rate']:5.2f}%)"
                    f"  tail {100 * row['tail_miss_rate']:6.2f}%"
                    f" lat {row['tail_latency_us']:7.2f}us"
                    f"  q {row['quarantines']}"
                )

    # Prepared-path parity: with chaos and monitoring disabled,
    # run_prepared (warm-up cut disabled) must reproduce the chunked
    # streamed baseline byte for byte.
    streamed = run_fabric_scenario(
        None, pages, writes,
        topology=topology, config=config, chunk_requests=chunk,
        parallel=parallel_for(WORKER_COUNTS[0]),
    )
    prepared = run_prepared_scenario(
        None, pages, writes,
        topology=topology, config=config, chunk_requests=chunk,
        parallel=parallel_for(WORKER_COUNTS[0]),
    )
    parity_fields = ("accesses", "miss_rate", "total_time_ns")
    prepared_parity = {
        "fields": list(parity_fields),
        "streamed": {f: streamed[f] for f in parity_fields},
        "prepared": {f: prepared[f] for f in parity_fields},
        "identical": all(
            streamed[f] == prepared[f] for f in parity_fields
        ),
    }
    print(
        "prepared parity: "
        + ("byte-identical" if prepared_parity["identical"]
           else "MISMATCH")
    )

    mismatches = []
    for name in SCENARIO_NAMES:
        for arm in ("off", "on", "n/a"):
            per_worker = [
                r for r in rows
                if r["scenario"] == name and r["monitor"] == arm
            ]
            if not per_worker:
                continue
            reference = {
                k: v
                for k, v in per_worker[0].items()
                if k != "workers"
            }
            for other in per_worker[1:]:
                candidate = {
                    k: v for k, v in other.items() if k != "workers"
                }
                if candidate != reference:
                    mismatches.append(f"{name}/{arm}")
                    break
    print(
        "determinism: "
        + ("identical across worker counts" if not mismatches
           else f"MISMATCH in {mismatches}")
    )

    return {
        "bench": "chaos_recovery",
        "version": 2,
        "smoke": smoke,
        "seed": seed,
        "chaos_seed": chaos_seed,
        "stream": {
            "n_accesses": int(pages.shape[0]),
            "chunk_requests": chunk,
            "n_chunks": int(n_chunks),
            "fault_horizon_chunks": int(horizon),
            "failslow_horizon_chunks": int(
                scenario_horizons["device_failslow"]
            ),
        },
        "health": {
            "latency_threshold": HEALTH.latency_threshold,
            "miss_threshold": MISS_THRESHOLD,
            "breach_chunks": HEALTH.breach_chunks,
            "quarantine_chunks": HEALTH.quarantine_chunks,
            "probation_chunks": HEALTH.probation_chunks,
        },
        "scenarios": rows,
        "prepared_parity": prepared_parity,
        "determinism": {
            "worker_counts": list(WORKER_COUNTS),
            "identical": not mismatches,
            "mismatched_scenarios": mismatches,
        },
    }


def validate(payload: dict) -> list[str]:
    """Schema + acceptance check of an emitted payload."""
    problems = []
    for key in (
        "scenarios", "determinism", "stream", "prepared_parity"
    ):
        if key not in payload:
            problems.append(f"missing top-level {key!r}")
    if problems:
        return problems
    rows = payload["scenarios"]
    n_fabric = sum(
        1 for n in SCENARIO_NAMES
        if n not in SERVING_SCENARIOS
    )
    expected_rows = (
        len(SERVING_SCENARIOS) + 2 * n_fabric
    ) * len(WORKER_COUNTS)
    if not isinstance(rows, list) or len(rows) != expected_rows:
        return [
            f"'scenarios' must list {expected_rows} rows"
            " (serving scenarios + fabric/prepared scenarios x"
            " monitor on/off, each at"
            f" {len(WORKER_COUNTS)} worker counts)"
        ]
    for i, row in enumerate(rows):
        for fieldname, kind in ROW_SCHEMA.items():
            if fieldname not in row:
                problems.append(f"scenarios[{i}]: missing {fieldname!r}")
            elif kind is float:
                if not isinstance(row[fieldname], (int, float)):
                    problems.append(
                        f"scenarios[{i}].{fieldname}: not numeric"
                    )
            elif not isinstance(row[fieldname], kind):
                problems.append(
                    f"scenarios[{i}].{fieldname}:"
                    f" expected {kind.__name__}"
                )
    if problems:
        return problems

    n_accesses = payload["stream"]["n_accesses"]
    if not payload["determinism"].get("identical", False):
        problems.append(
            "acceptance: scenario rows diverged across worker counts"
            f" ({payload['determinism'].get('mismatched_scenarios')})"
        )
    if not payload["prepared_parity"].get("identical", False):
        problems.append(
            "acceptance: disabled-chaos run_prepared diverged from"
            " the streamed fabric baseline"
            f" ({payload['prepared_parity']})"
        )
    for row in rows:
        label = (
            f"{row['scenario']}"
            f" (workers={row['workers']}, monitor={row['monitor']})"
        )
        if row["faults"] < 1:
            problems.append(
                f"acceptance: {label} observed no faults; the"
                " scenario exercised nothing"
            )
        if row["accesses"] != n_accesses:
            problems.append(
                f"acceptance: {label} served {row['accesses']} of"
                f" {n_accesses} accesses (lost traffic)"
            )
        bound = max(
            RECOVERY_FACTOR * row["baseline_tail_miss_rate"],
            row["baseline_tail_miss_rate"] + RECOVERY_SLACK,
        )
        if row["tail_miss_rate"] > bound:
            problems.append(
                f"acceptance: {label} post-recovery miss rate"
                f" {row['tail_miss_rate']:.4f} exceeds bound"
                f" {bound:.4f} (baseline"
                f" {row['baseline_tail_miss_rate']:.4f})"
            )
        if row["scenario"] in (
            "device_failure", "prepared_failure"
        ) and row["failover_accesses"] <= 0:
            problems.append(
                f"acceptance: {label} observed no failover traffic"
            )
        if row["monitor"] == "on" and not row["monitor_digest"]:
            problems.append(
                f"acceptance: {label} carries no monitor decision"
                " digest"
            )
        if row["scenario"] == "worker_crash":
            if row["miss_rate"] != row["baseline_miss_rate"]:
                problems.append(
                    f"acceptance: {label} totals diverged from the"
                    " fault-free run (crash retries must be"
                    " transparent)"
                )
            if row["worker_retries"] < 1:
                problems.append(
                    f"acceptance: {label} performed no crash retries"
                )

    # Fail-slow response gate: quarantine must strictly beat riding
    # out the ramp, on both the miss and the latency tail.
    for workers in WORKER_COUNTS:
        arms = {
            row["monitor"]: row
            for row in rows
            if row["scenario"] == "device_failslow"
            and row["workers"] == workers
        }
        if "off" not in arms or "on" not in arms:
            problems.append(
                "acceptance: device_failslow must run both monitor"
                f" arms at workers={workers}"
            )
            continue
        on, off = arms["on"], arms["off"]
        if on["quarantines"] < 1:
            problems.append(
                "acceptance: device_failslow monitor-on arm"
                f" (workers={workers}) made no quarantine decision"
            )
        if not on["tail_miss_rate"] < off["tail_miss_rate"]:
            problems.append(
                "acceptance: device_failslow monitor-on tail miss"
                f" rate {on['tail_miss_rate']:.4f} not strictly"
                f" better than monitor-off"
                f" {off['tail_miss_rate']:.4f}"
                f" (workers={workers})"
            )
        if not on["tail_latency_us"] < off["tail_latency_us"]:
            problems.append(
                "acceptance: device_failslow monitor-on tail"
                f" latency {on['tail_latency_us']:.2f}us not"
                " strictly better than monitor-off"
                f" {off['tail_latency_us']:.2f}us"
                f" (workers={workers})"
            )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="short stream + small mixture (CI smoke run)",
    )
    parser.add_argument(
        "--validate",
        metavar="JSON",
        help="validate an existing output file and exit",
    )
    parser.add_argument(
        "--output",
        default=None,
        help=(
            "output JSON path (default: BENCH_chaos_recovery.json, or"
            " BENCH_chaos_recovery.smoke.json with --smoke)"
        ),
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--chaos-seed",
        type=int,
        default=50,
        help=(
            "seed of the deterministic fault plans (the default is"
            " chosen so every channel lands faults inside both the"
            " smoke and full streams and the fail-slow ramp hits a"
            " single device early -- a sick *majority* would"
            " contaminate the fleet median the monitor judges"
            " against, which is a documented detection limit, not a"
            " scorecard regime)"
        ),
    )
    args = parser.parse_args(argv)

    if args.validate:
        path = Path(args.validate)
        if not path.is_file():
            print(f"INVALID: no such file: {path}", file=sys.stderr)
            return 1
        try:
            payload = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            print(f"INVALID: not JSON: {exc}", file=sys.stderr)
            return 1
        problems = validate(payload)
        if problems:
            for problem in problems:
                print(f"INVALID: {problem}", file=sys.stderr)
            return 1
        print(f"{args.validate}: valid")
        return 0

    payload = run(
        smoke=args.smoke, seed=args.seed, chaos_seed=args.chaos_seed
    )
    output = args.output or (
        "BENCH_chaos_recovery.smoke.json"
        if args.smoke
        else "BENCH_chaos_recovery.json"
    )
    problems = validate(payload)
    Path(output).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {output}")
    if problems:
        for problem in problems:
            print(f"INVALID: {problem}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
