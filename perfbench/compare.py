"""Compare two sets of saved benchmark records.

    python3 perfbench/compare.py BASE NEW

``BASE`` and ``NEW`` are record files or directories of them (``run.py``
saves one per run under ``.perfbench/results/``).  Records pair up by
workload, trace mode and seed; the comparison is refused (exit 2) when
a pair's host fingerprints differ, since times from different hosts,
thread settings or library builds say nothing about the code.  For each
workload and metric it prints both medians over the paired seeds and
the change; an end-to-end metric worse by more than its bound in
``BENCHMARK.json`` is flagged and makes the exit status 1.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> dict:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    records = {}
    for file in files:
        record = json.loads(file.read_text())
        records[record["workload"], record["trace"], record["seed"]] = record
    return records


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (load(Path(arg)) for arg in argv)
    keys = sorted(base.keys() & new.keys())
    if not keys:
        print("error: no records pair up by workload, trace and seed",
              file=sys.stderr)
        return 2
    for key in keys:
        if base[key]["fingerprint"] != new[key]["fingerprint"]:
            print(f"error: host fingerprints differ for {key}; refusing to"
                  f" compare\n  base {base[key]['fingerprint']}\n"
                  f"  new  {new[key]['fingerprint']}", file=sys.stderr)
            return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    worse = 0
    for workload, trace in sorted({k[:2] for k in keys}):
        pairs = [k for k in keys if k[:2] == (workload, trace)]
        print(f"== {workload} trace {trace}: {len(pairs)} paired seeds")
        for name in base[pairs[0]]["metrics"]:
            a = statistics.median(base[k]["metrics"][name]["value"] for k in pairs)
            b = statistics.median(new[k]["metrics"][name]["value"] for k in pairs)
            change = (b - a) / a if a else 0.0
            flag = ""
            if name in bounds:
                sign = 1 if bounds[name]["better"] == "lower" else -1
                if sign * change > bounds[name]["bound"]:
                    flag = f"  WORSE than bound {bounds[name]['bound']:.0%}"
                    worse += 1
            print(f"  {name:<44} {a:14.6g} -> {b:14.6g} {change:+8.2%}{flag}")
    return 1 if worse else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
