"""The repository benchmark: one command per workload, or all of them.

    python3 perfbench/run.py --workload serve-drift --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py            # every workload, seed 1

Run from the repository root.  For each workload it generates the
seeded trace file in one process, runs the workload in another
(single-threaded: the BLAS thread variables are set to 1), checks the
outputs, and prints the metrics by name and unit.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  Full records, with the host
fingerprint, go to ``.perfbench/results/`` (spans of traced runs to
``.perfbench/spans/``); ``perfbench/compare.py`` compares them.

This process imports only the standard library, so the workload
process's peak RSS is its own.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.spec import THREAD_ENV, WORKLOADS  # noqa: E402

WORK = ROOT / ".perfbench"

#: Both child processes of one workload run must end within this
#: many seconds (a run must end within 180 s).
BUDGET_S = 170

#: The paper's claim for ICGMM against LRU (DAC 2024, Fig. 6 and
#: Table 1), quoted next to the simulated fabric-fig6 reduction.
PAPER_MISS_REDUCTION = "0.32-6.14%"
PAPER_LATENCY_REDUCTION = "16.23-39.14%"


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_ENV})
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    return env


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Generate the inputs, run the workload process, return its record."""
    stamp = f"{name}-seed{seed}-trace{trace}-{os.getpid()}"
    inputs = WORK / "tmp" / stamp
    record_path = inputs / "record.json"
    spans_path = WORK / "spans" / f"{stamp}.json"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + BUDGET_S

    def child(*args: str) -> None:
        subprocess.run(
            [sys.executable, "-m", *args],
            cwd=ROOT,
            env=child_env(),
            check=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )

    try:
        child("perfbench.gen", "--workload", name, "--seed", str(seed),
              "--out", str(inputs))
        child("perfbench.workload", "--workload", name, "--seed", str(seed),
              "--seconds", str(seconds), "--trace", str(trace),
              "--inputs", str(inputs), "--record", str(record_path),
              "--spans", str(spans_path))
        record = json.loads(record_path.read_text())
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    saved = results / f"{time.strftime('%Y%m%dT%H%M%S')}-{stamp}.json"
    saved.write_text(json.dumps(record, indent=1))
    return record


def accuracy_lines(record: dict) -> list[str]:
    """Simulated figures against LRU, next to the paper's where it has one."""
    sim = record["simulated"]
    gmm, lru = sim["gmm-caching-eviction"], sim["lru"]
    miss_ratio = gmm["miss_rate_pct"] / lru["miss_rate_pct"]
    latency_ratio = gmm["avg_access_us"] / lru["avg_access_us"]
    lines = [
        f"accuracy {record['workload']} (simulated, Table 1 pricing;"
        " the model is not validated against hardware):"
    ]
    if record["workload"] == "fabric-fig6":
        for strategy, row in sim.items():
            lines.append(
                f"  {strategy:<22} miss {row['miss_rate_pct']:6.3f}%"
                f"  avg access {row['avg_access_us']:7.3f} us"
            )
        lines.append(
            f"  gmm-caching-eviction vs lru: miss rate"
            f" {lru['miss_rate_pct']:.2f}% -> {gmm['miss_rate_pct']:.2f}%"
            f" ({lru['miss_rate_pct'] - gmm['miss_rate_pct']:.2f} points,"
            f" {100 * (1 - miss_ratio):.1f}% fewer misses),"
            f" {100 * (1 - latency_ratio):.1f}% lower average access latency"
        )
        lines.append(
            f"  paper: {PAPER_MISS_REDUCTION} fewer cache misses and"
            f" {PAPER_LATENCY_REDUCTION} lower average SSD access latency"
            " than LRU"
        )
    else:
        lines.append(
            f"  the GMM misses {miss_ratio:.2f}x as often as LRU"
            f" ({gmm['miss_rate_pct']:.2f}% vs {lru['miss_rate_pct']:.2f}%);"
            f" average access latency {latency_ratio:.2f}x LRU's"
        )
    return lines


def report(record: dict) -> None:
    """Print one record for a reader: metrics, checks, host, accuracy."""
    print(f"== {record['workload']} seed {record['seed']}"
          f" trace {record['trace']}")
    fp = record["fingerprint"]
    threads = ",".join(f"{k}={v}" for k, v in fp["threads"].items())
    print(f"host: nproc={fp['nproc']} cpu={fp['cpu_model']!r}"
          f" python={fp['python']} numpy={fp['numpy']} blas={fp['blas']!r}"
          f" {threads} seed={fp['seed']}")
    for name, metric in record["metrics"].items():
        print(f"  {name:<44} {metric['value']:>16.6g} {metric['unit']}")
    diag = record["diagnostics"]
    print(f"host reference kernel median {diag['host.ref_kernel_ms']:.4f} ms;"
          f" raw throughput {diag['host.raw_throughput_acc_s']:.6g} acc/s;"
          f" {diag['timed_chunks']} timed chunks")
    print(f"checks: {record['failed']} of {record['attempted']} accesses"
          " failed" + "".join(f"\n  {p}" for p in record["problems"]))
    for line in accuracy_lines(record):
        print(line)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark (see module docstring)."
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"],
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        try:
            record = run_workload(name, args.seed, args.seconds, args.trace)
        except (subprocess.SubprocessError, OSError, ValueError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        report(record)
        records.append(record)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {
            f"{r['workload']}.{name}": metric
            for r in records
            for name, metric in r["metrics"].items()
        }
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
