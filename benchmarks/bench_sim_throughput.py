"""Simulation-throughput benchmark: reference loop vs fast engine.

Measures accesses/second of the scalar reference simulator
(:func:`repro.cache.setassoc.simulate`) and the chunked vectorized
engine (:func:`repro.cache.simulate_fast.simulate_fast`) across the
policy zoo, several trace lengths, and four trace shapes, asserting
bit-identical counters between the paths on every run, and emits a
machine-readable ``BENCH_sim_throughput.json``.

Trace shapes:

* ``skew`` -- the standard skewed mix for cache studies: 80% of
  accesses to a hot region half the cache's block count, 20% uniform
  over an 8x-larger cold footprint, 30% writes; the GMM rows use
  synthetic standard-normal scores with the admission threshold at
  the 10th percentile (score *values* do not affect throughput, only
  the admit/bypass mix does).
* ``hammer-page`` -- 90% of accesses hammer a single page.
* ``hammer-set`` -- 6 distinct pages that all collide in one cache
  set: every same-set round holds one access, so the fast engine
  replays the stream in its scalar tail.
* ``set-pingpong`` -- short same-set spans (12 runs of consecutive
  distinct tags, 3 accesses per run) rotating across 16 sets: rounds
  at most 16 accesses wide, so the stream also runs in the tail.

The reference loop and the fast engine are each timed once per row;
the only gate is exactness (``stats_identical`` on every row).

Unlike the pytest-benchmark ablation benches this is a standalone
script (no fixtures, no GMM training) so it can run in seconds and in
CI smoke mode::

    PYTHONPATH=src python benchmarks/bench_sim_throughput.py            # full
    PYTHONPATH=src python benchmarks/bench_sim_throughput.py --smoke    # quick
    PYTHONPATH=src python benchmarks/bench_sim_throughput.py --validate out.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.cache.policies import (
    BeladyPolicy,
    ClockPolicy,
    CounterRandomPolicy,
    FifoPolicy,
    GmmCachePolicy,
    LfuPolicy,
    LruPolicy,
    RandomPolicy,
    SlruPolicy,
    TwoQPolicy,
)
from repro.cache.setassoc import (
    CacheGeometry,
    SetAssociativeCache,
    simulate,
)
from repro.cache.simulate_fast import simulate_fast

#: JSON schema (field -> type) of every entry in ``results``.
RESULT_SCHEMA = {
    "policy": str,
    "trace": str,
    "trace_length": int,
    "reference_s": float,
    "fast_s": float,
    "reference_accesses_per_s": float,
    "fast_accesses_per_s": float,
    "speedup": float,
    "stats_identical": bool,
    "miss_rate": float,
}

HOT_FRACTION = 0.8
WRITE_FRACTION = 0.3


def make_trace(
    n: int, geometry: CacheGeometry, kind: str = "skew", seed: int = 1
):
    """Page stream + writes + synthetic scores for one trace shape."""
    rng = np.random.default_rng(seed)
    n_blocks = geometry.n_blocks
    cold = rng.integers(0, 8 * n_blocks, n)
    if kind == "skew":
        hot = rng.integers(0, max(1, n_blocks // 2), n)
        pages = np.where(rng.random(n) < HOT_FRACTION, hot, cold)
    elif kind == "hammer-page":
        pages = np.where(rng.random(n) < 0.9, 0, cold)
    elif kind == "hammer-set":
        # 6 distinct pages, all in set 0: one scorching set whose
        # working set fits the 8 ways.
        pages = rng.integers(0, 6, n) * geometry.n_sets
    elif kind == "set-pingpong":
        # Interrupted spans: each span is 12 runs of *consecutive
        # distinct* tags within one set (3 accesses per run), and
        # spans rotate across 16 sets.
        reps, tags, run_len, sets_used = 12, 6, 3, 16
        n_spans = n // (reps * run_len) + 2
        set_of = np.arange(n_spans) % sets_used
        tag = rng.integers(0, tags, (n_spans, reps))
        for k in range(1, reps):
            same = tag[:, k] == tag[:, k - 1]
            tag[same, k] = (tag[same, k] + 1) % tags
        span_pages = tag * geometry.n_sets + set_of[:, None]
        pages = np.repeat(span_pages.reshape(-1), run_len)[:n]
    else:
        raise ValueError(f"unknown trace kind: {kind!r}")
    is_write = rng.random(n) < WRITE_FRACTION
    scores = rng.standard_normal(n)
    return pages.astype(np.int64), is_write, scores


def policy_factories(pages: np.ndarray, threshold: float):
    """Fresh-policy factories for every benchmarked policy."""
    return {
        "lru": lambda: LruPolicy(),
        "fifo": lambda: FifoPolicy(),
        "lfu": lambda: LfuPolicy(),
        "clock": lambda: ClockPolicy(),
        "slru": lambda: SlruPolicy(),
        "2q": lambda: TwoQPolicy(),
        "random": lambda: RandomPolicy(np.random.default_rng(7)),
        "counter-random": lambda: CounterRandomPolicy(seed=7),
        "belady": lambda: BeladyPolicy(pages),
        "gmm": lambda: GmmCachePolicy(threshold=threshold),
    }


def _same_planes(one: SetAssociativeCache, other: SetAssociativeCache):
    return all(
        np.array_equal(getattr(one, plane), getattr(other, plane))
        for plane in ("tags", "dirty", "meta", "stamp")
    )


def bench_one(geometry, make_policy, pages, is_write, scores, warmup):
    """Time the reference and the fast engine once each.

    Returns ``(ref_s, fast_s, identical, miss_rate)``; ``identical``
    compares the counters and all four cache planes.
    """
    runs = []
    for simulator in (simulate, simulate_fast):
        cache = SetAssociativeCache(geometry)
        policy = make_policy()
        t0 = time.perf_counter()
        stats = simulator(
            cache, policy, pages, is_write,
            scores=scores, warmup_fraction=warmup,
        )
        runs.append((time.perf_counter() - t0, stats, cache))
    (ref_s, ref_stats, ref_cache), (fast_s, stats, cache) = runs
    identical = stats == ref_stats and _same_planes(ref_cache, cache)
    return ref_s, fast_s, bool(identical), ref_stats.miss_rate


def run(matrix, policies, geometry, warmup=0.0):
    """Benchmark ``(trace_kind, length)`` pairs x policies."""
    results = []
    for kind, n in matrix:
        pages, is_write, scores = make_trace(n, geometry, kind)
        threshold = float(np.quantile(scores, 0.1))
        factories = policy_factories(pages, threshold)
        for name in policies:
            ref_s, fast_s, identical, miss_rate = bench_one(
                geometry, factories[name], pages, is_write,
                scores, warmup,
            )
            row = {
                "policy": name,
                "trace": kind,
                "trace_length": int(n),
                "reference_s": round(ref_s, 4),
                "fast_s": round(fast_s, 4),
                "reference_accesses_per_s": round(n / ref_s, 1),
                "fast_accesses_per_s": round(n / fast_s, 1),
                "speedup": round(ref_s / fast_s, 2),
                "stats_identical": identical,
                "miss_rate": round(miss_rate, 4),
            }
            results.append(row)
            print(
                f"{name:8s} {kind:12s} n={n:>9,d}"
                f"  ref {row['reference_accesses_per_s']:>12,.0f}/s"
                f"  fast {row['fast_accesses_per_s']:>12,.0f}/s"
                f"  speedup {row['speedup']:6.1f}x"
                f"  identical={identical}"
            )
    return results


def validate(payload: dict) -> list[str]:
    """Schema check of an emitted JSON payload; returns problems."""
    problems = []
    if "geometry" not in payload or "results" not in payload:
        return ["missing top-level 'geometry' or 'results'"]
    if not isinstance(payload["results"], list) or not payload["results"]:
        return ["'results' must be a non-empty list"]
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
            problems.append(f"results[{i}]: fast/reference diverged")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="short trace + policy subset (CI smoke run)",
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
            "output JSON path (default: BENCH_sim_throughput.json,"
            " or BENCH_sim_throughput.smoke.json with --smoke so a"
            " smoke run never clobbers the full results)"
        ),
    )
    parser.add_argument(
        "--lengths",
        type=int,
        nargs="+",
        default=None,
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
        matrix = [("skew", n) for n in lengths]
        matrix += [
            ("hammer-set", lengths[0]),
            ("set-pingpong", lengths[0]),
        ]
        policies = ("lru", "gmm", "clock")
        output = args.output or "BENCH_sim_throughput.smoke.json"
    else:
        lengths = args.lengths or [100_000, 1_000_000]
        matrix = [("skew", n) for n in lengths]
        matrix += [
            ("hammer-page", lengths[-1]),
            ("hammer-set", lengths[-1]),
            ("set-pingpong", lengths[-1]),
        ]
        policies = (
            "lru", "fifo", "lfu", "clock", "slru", "2q",
            "random", "counter-random", "belady", "gmm",
        )
        output = args.output or "BENCH_sim_throughput.json"

    results = run(matrix, policies, geometry)
    payload = {
        "bench": "sim_throughput",
        "smoke": bool(args.smoke),
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
