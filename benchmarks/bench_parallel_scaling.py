"""Parallel-scaling benchmark: multicore fabric replay vs one core.

Replays the standard skewed trace over a multi-device CXL fabric at
1/2/4/8 worker threads across 1-8 devices, asserting that every
parallel run is *bit-identical* to the sequential one -- per-device
counters and priced service times -- and emits a machine-readable
``BENCH_parallel_scaling.json``.

Speedups here are real wall-clock ratios against the ``workers=1``
replay of the same matrix cell, so they are honest about the host:
the payload records ``cpu_count``, and the acceptance gate (>= 2.5x
at 4 workers on the paper geometry) is enforced only when the host
actually has >= 4 CPUs -- on smaller hosts the gate is reported as
skipped while the bit-exactness checks still apply to every row::

    PYTHONPATH=src python benchmarks/bench_parallel_scaling.py            # full
    PYTHONPATH=src python benchmarks/bench_parallel_scaling.py --smoke    # quick
    PYTHONPATH=src python benchmarks/bench_parallel_scaling.py --validate out.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.cache.setassoc import CacheGeometry
from repro.core.config import (
    FabricTopology,
    IcgmmConfig,
    ParallelConfig,
)
from repro.cxl.fabric import CxlFabric

#: JSON schema (field -> type) of the structured ``gate`` marker:
#: whether the speedup acceptance gate was enforced for this payload
#: and, when skipped, exactly why.  Making the skip explicit and
#: machine-checked means a rerun on a wider host flips ``status`` to
#: ``enforced`` -- a detectable regression-gate upgrade, never a
#: silent change.
GATE_SCHEMA = {
    "metric": str,
    "workers": int,
    "min_speedup": float,
    "min_cpus": int,
    "cpu_count": int,
    "status": str,  # "enforced" | "skipped"
    "reason": (str, type(None)),  # None iff enforced
}

#: JSON schema (field -> type) of every entry in ``results``.
RESULT_SCHEMA = {
    "strategy": str,
    "workers": int,
    "n_devices": int,
    "trace_length": int,
    "seconds": float,
    "accesses_per_s": float,
    "speedup_vs_1_worker": float,
    "stats_identical": bool,
    "time_identical": bool,
    "miss_rate": float,
}

#: Acceptance: >= this speedup at WORKERS_GATE workers somewhere in a
#: full run's matrix -- enforced only on hosts with >= MIN_CPUS_FOR_GATE
#: CPUs (a 1-core container cannot physically exhibit parallel
#: speedup; bit-exactness is still enforced everywhere).
MIN_FULL_SPEEDUP = 2.5
WORKERS_GATE = 4
MIN_CPUS_FOR_GATE = 4

HOT_FRACTION = 0.8
WRITE_FRACTION = 0.3


def make_trace(n: int, geometry: CacheGeometry, seed: int = 1):
    """Skewed page stream + writes + synthetic scores."""
    rng = np.random.default_rng(seed)
    n_blocks = geometry.n_blocks
    hot = rng.integers(0, max(1, n_blocks // 2), n)
    cold = rng.integers(0, 8 * n_blocks, n)
    pages = np.where(rng.random(n) < HOT_FRACTION, hot, cold)
    is_write = rng.random(n) < WRITE_FRACTION
    scores = rng.standard_normal(n)
    return pages, is_write, scores


def replay_once(
    geometry: CacheGeometry,
    n_devices: int,
    strategy: str,
    parallel: ParallelConfig,
    pages,
    is_write,
    scores,
    threshold: float,
):
    """One timed fabric replay; returns (seconds, FabricRunResult)."""
    fabric = CxlFabric(
        FabricTopology(n_devices=n_devices),
        config=IcgmmConfig(geometry=geometry),
        parallel=parallel,
    )
    fabric.bind(strategy, threshold)
    # Pool spin-up (thread creation) is a one-time cost a long-lived
    # fabric amortises away; a tiny untimed warm-up chunk keeps it out
    # of the measured replay.
    fabric.ingest(pages[:64], is_write[:64], scores=scores[:64])
    t0 = time.perf_counter()
    fabric.ingest(pages[64:], is_write[64:], scores=scores[64:])
    seconds = time.perf_counter() - t0
    result = fabric.results()
    fabric.close()
    return seconds, result


def run(trace_lengths, strategies, device_counts, workers_list,
        geometry):
    """Benchmark the matrix; returns the result-dict list."""
    results = []
    for n in trace_lengths:
        pages, is_write, scores = make_trace(n, geometry)
        threshold = float(np.quantile(scores, 0.1))
        for strategy in strategies:
            for n_devices in device_counts:
                baseline = None
                base_seconds = None
                for workers in workers_list:
                    seconds, result = replay_once(
                        geometry,
                        n_devices,
                        strategy,
                        ParallelConfig(workers=workers),
                        pages,
                        is_write,
                        scores,
                        threshold,
                    )
                    if baseline is None:
                        baseline = result
                        base_seconds = seconds
                    identical = all(
                        a.stats == b.stats
                        for a, b in zip(
                            result.devices, baseline.devices
                        )
                    )
                    time_identical = all(
                        a.time_ns == b.time_ns
                        for a, b in zip(
                            result.devices, baseline.devices
                        )
                    )
                    row = {
                        "strategy": strategy,
                        "workers": int(workers),
                        "n_devices": int(n_devices),
                        "trace_length": int(n),
                        "seconds": round(seconds, 4),
                        "accesses_per_s": round(n / seconds, 1),
                        "speedup_vs_1_worker": round(
                            base_seconds / seconds, 2
                        ),
                        "stats_identical": bool(identical),
                        "time_identical": bool(time_identical),
                        "miss_rate": round(
                            result.totals.miss_rate, 4
                        ),
                    }
                    results.append(row)
                    print(
                        f"{strategy:18s} devices={n_devices}"
                        f" workers={workers}"
                        f" n={n:>9,d}"
                        f"  {row['accesses_per_s']:>12,.0f}/s"
                        f"  speedup {row['speedup_vs_1_worker']:5.2f}x"
                        f"  identical="
                        f"{identical and time_identical}"
                    )
    return results


def validate(payload: dict) -> list[str]:
    """Schema + acceptance check of an emitted payload."""
    problems = []
    for key in ("geometry", "results", "mode", "cpu_count", "gate"):
        if key not in payload:
            return [f"missing top-level {key!r}"]
    if not isinstance(payload["results"], list) or not payload["results"]:
        return ["'results' must be a non-empty list"]
    gate = payload["gate"]
    if not isinstance(gate, dict):
        problems.append("'gate' must be a structured object")
        gate = {}
    for field, kind in GATE_SCHEMA.items():
        if field not in gate:
            problems.append(f"gate: missing {field!r}")
        elif kind is float:
            if not isinstance(gate[field], (int, float)):
                problems.append(f"gate.{field}: not numeric")
        elif not isinstance(gate[field], kind):
            problems.append(f"gate.{field}: wrong type")
    if gate.get("status") not in ("enforced", "skipped"):
        problems.append(
            f"gate.status: {gate.get('status')!r} is not"
            " 'enforced'/'skipped'"
        )
    if gate.get("status") == "skipped" and not gate.get("reason"):
        problems.append("gate.status skipped without a reason")
    if gate.get("status") == "enforced" and gate.get("reason"):
        problems.append("gate.status enforced must carry reason=None")
    if "cpu_count" in gate and gate["cpu_count"] != payload["cpu_count"]:
        problems.append(
            "gate.cpu_count disagrees with top-level cpu_count"
        )
    expected_status = (
        "enforced"
        if payload["mode"] == "full"
        and payload["cpu_count"] >= MIN_CPUS_FOR_GATE
        else "skipped"
    )
    if gate.get("status") not in (None, expected_status):
        problems.append(
            f"gate.status {gate.get('status')!r} inconsistent with"
            f" mode={payload['mode']!r}"
            f" cpu_count={payload['cpu_count']}"
        )
    for i, row in enumerate(payload["results"]):
        for field, kind in RESULT_SCHEMA.items():
            if field not in row:
                problems.append(f"results[{i}]: missing {field!r}")
            elif kind is float:
                if not isinstance(row[field], (int, float)):
                    problems.append(f"results[{i}].{field}: not numeric")
            elif not isinstance(row[field], kind):
                problems.append(
                    f"results[{i}].{field}: expected {kind.__name__}"
                )
        if not row.get("stats_identical", False):
            problems.append(
                f"results[{i}]: parallel/sequential stats diverged"
            )
        if not row.get("time_identical", False):
            problems.append(
                f"results[{i}]: parallel/sequential priced times"
                " diverged"
            )
    if (
        payload["mode"] == "full"
        and payload["cpu_count"] >= MIN_CPUS_FOR_GATE
    ):
        best = max(
            (
                row.get("speedup_vs_1_worker", 0.0)
                for row in payload["results"]
                if row.get("workers") == WORKERS_GATE
            ),
            default=0.0,
        )
        if best < MIN_FULL_SPEEDUP:
            problems.append(
                f"best {WORKERS_GATE}-worker speedup {best}x below"
                f" the {MIN_FULL_SPEEDUP}x acceptance bar"
            )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="short trace + small matrix (CI smoke run)",
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
            "output JSON path (default: BENCH_parallel_scaling.json,"
            " or BENCH_parallel_scaling.smoke.json with --smoke so a"
            " smoke run never clobbers the full results)"
        ),
    )
    parser.add_argument(
        "--workers", type=int, nargs="+", default=None,
        help="worker counts to benchmark",
    )
    parser.add_argument(
        "--devices", type=int, nargs="+", default=None,
        help="device counts to benchmark",
    )
    parser.add_argument(
        "--lengths", type=int, nargs="+", default=None,
        help="trace lengths to benchmark",
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
        print(
            f"{args.validate}: valid"
            f" ({len(payload['results'])} result rows)"
        )
        return 0

    # The paper's case-study geometry (64 MB / 4 KB / 8-way).
    geometry = CacheGeometry()
    if args.smoke:
        lengths = args.lengths or [20_000]
        strategies = ("gmm-caching",)
        device_counts = tuple(args.devices or (2,))
        workers_list = tuple(args.workers or (1, 2))
        output = args.output or "BENCH_parallel_scaling.smoke.json"
        mode = "smoke"
    else:
        lengths = args.lengths or [400_000]
        strategies = ("lru", "gmm-caching")
        device_counts = tuple(args.devices or (1, 2, 4, 8))
        workers_list = tuple(args.workers or (1, 2, 4, 8))
        output = args.output or "BENCH_parallel_scaling.json"
        mode = "full"

    cpu_count = os.cpu_count() or 1
    results = run(
        lengths,
        strategies,
        device_counts,
        workers_list,
        geometry,
    )
    gate_active = mode == "full" and cpu_count >= MIN_CPUS_FOR_GATE
    payload = {
        "bench": "parallel_scaling",
        "mode": mode,
        "cpu_count": cpu_count,
        "gate": {
            "metric": "speedup_vs_1_worker",
            "workers": WORKERS_GATE,
            "min_speedup": MIN_FULL_SPEEDUP,
            "min_cpus": MIN_CPUS_FOR_GATE,
            "cpu_count": cpu_count,
            "status": "enforced" if gate_active else "skipped",
            "reason": (
                None
                if gate_active
                else (
                    "smoke mode"
                    if mode == "smoke"
                    else f"{cpu_count}-core host"
                )
            ),
        },
        "speedup_gate": (
            "enforced"
            if gate_active
            else (
                f"skipped (cpu_count={cpu_count} <"
                f" {MIN_CPUS_FOR_GATE}; parallel speedup is not"
                " physically observable, bit-exactness still"
                " enforced)"
                if mode == "full"
                else "skipped (smoke mode)"
            )
        ),
        "geometry": {
            "capacity_bytes": geometry.capacity_bytes,
            "block_bytes": geometry.block_bytes,
            "associativity": geometry.associativity,
            "n_sets": geometry.n_sets,
        },
        "trace": {
            "hot_fraction": HOT_FRACTION,
            "write_fraction": WRITE_FRACTION,
        },
        "results": results,
    }
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
