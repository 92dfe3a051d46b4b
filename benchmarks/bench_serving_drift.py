"""Serving-under-drift benchmark: frozen vs online vs oracle.

A phase-shifted multi-tenant stream is replayed through the
:class:`repro.serving.IcgmmCacheService`: tenant 0's hot set is
stable, tenant 1's hot set *moves* at the phase boundary (a failover
/ cache-rebuild event).  Four deployments race on the post-drift
steady state:

* **frozen** -- the paper's deployment: the offline engine never
  changes, so post-drift traffic scores below its admission cut and
  the service bypasses/evicts exactly the pages that just became hot;
* **online** -- the serving subsystem's drift-aware refresh: the
  score-drift detector fires, recent chunks are folded into the
  mixture by warm-started EM, and the refreshed engine is swapped in;
* **online-async** -- the same refresh built on a background worker
  (``ServingConfig.refresh_async``) while chunks keep flowing on the
  old engine; the stream end drains a still-running build;
* **oracle** -- an engine batch-trained on post-drift traffic (upper
  bound).

The bench asserts four acceptance properties and bakes them into the
emitted ``BENCH_serving_drift.json``:

1. ``recovered_gap_fraction >= 0.5`` -- the online engine recovers at
   least half of the frozen-vs-oracle post-drift miss-rate gap;
2. ``parity.identical`` -- with refresh disabled, the sharded,
   chunked, resumable serving loop's counters are *bit-identical* to
   a single-shot :meth:`repro.core.system.IcgmmSystem.run_strategy`
   on the same stream (chunking and sharding are exact, not
   approximate);
3. ``lost_accesses == 0`` on every deployment -- each chunk report is
   accounted, in order;
4. ``refresh_stall.fraction <= 0.10`` -- the async deployment lands
   at least one build, and its on-path refresh cost
   (``refresh.onpath``: validation, CAS swap, consumer rebase) is at
   most a tenth of the online deployment's inline build seconds
   (``refresh``).  Swap timing in the async row depends on wall
   clock, so its miss rate is recorded, not gated.

Usage::

    PYTHONPATH=src python benchmarks/bench_serving_drift.py           # full
    PYTHONPATH=src python benchmarks/bench_serving_drift.py --smoke   # quick
    PYTHONPATH=src python benchmarks/bench_serving_drift.py --validate out.json
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.cache.setassoc import CacheGeometry
from repro.core.config import GmmEngineConfig, IcgmmConfig, ServingConfig
from repro.core.engine import GmmPolicyEngine
from repro.core.pipeline import StageProfiler
from repro.core.system import IcgmmSystem, PreparedWorkload
from repro.serving import IcgmmCacheService
from repro.traces.preprocess import transform_timestamps
from repro.traces.synthetic import ZipfSampler

#: Tenant partition stride in pages.
PARTITION = 1 << 20

#: Schema of every per-deployment entry in ``results``.
RESULT_SCHEMA = {
    "deployment": str,
    "post_drift_miss_rate": float,
    "post_drift_latency_us": float,
    "swaps": int,
    "final_generation": int,
    "lost_accesses": int,
    "refresh_inline_s": float,
    "refresh_onpath_s": float,
}

#: Deployment names, in ``results`` order.
DEPLOYMENTS = ("frozen", "online", "online-async", "oracle")

#: Ceiling of the async row's on-path refresh seconds as a fraction
#: of the online row's inline build seconds.
MAX_ONPATH_FRACTION = 0.10


def build_stream(n_phase: int, hot_pages: int, shift: int, seed: int):
    """Two-tenant stream whose second tenant drifts at the boundary.

    Returns ``(pages, is_write, phase_boundary)``.  Tenant 0 (stable
    key-value) lives in partition 0; tenant 1 lives in partition 1
    and its Zipf hot set jumps by ``shift`` pages at the boundary.
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
        base_page=PARTITION + shift,
        n_pages=hot_pages,
        alpha=1.2,
        write_fraction=0.1,
    )

    def interleave(sampler_one, n):
        choice = rng.random(n) < 0.5
        p0, w0 = stable.sample(int(np.sum(~choice)), rng)
        p1, w1 = sampler_one.sample(int(np.sum(choice)), rng)
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
        n_phase,
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


def train_oracle(pages, boundary, n_train, gmm_config, seed):
    """Engine trained on post-drift traffic (the upper bound)."""
    stop = min(boundary + n_train, pages.shape[0])
    timestamps = transform_timestamps(stop - boundary, mode="prose")
    features = np.column_stack(
        [
            pages[boundary:stop].astype(np.float64),
            timestamps.astype(np.float64),
        ]
    )
    return GmmPolicyEngine.train(
        features, gmm_config, np.random.default_rng(seed)
    )


def run_service(engine, config, serving, pages, writes, measure_from):
    """Replay the stream under a stage profiler.

    Returns ``(service, reports, seconds)``; a background build still
    running at the end of the stream is drained into the run.
    """
    service = IcgmmCacheService(
        engine,
        config=config,
        serving=serving,
        measure_from=measure_from,
    )
    service.pipeline.profiler = StageProfiler()
    try:
        t0 = time.perf_counter()
        reports = service.ingest(pages, writes)
        service.drain_refresh()
        elapsed = time.perf_counter() - t0
    finally:
        service.close()
    return service, reports, elapsed


def lost_accesses(reports, n_accesses: int) -> int:
    """Accesses missing from the chunk reports (plus one per report
    out of order)."""
    in_order = [r.chunk_index for r in reports] == list(
        range(len(reports))
    )
    return abs(n_accesses - sum(r.accesses for r in reports)) + (
        0 if in_order else 1
    )


def parity_check(engine, config, serving, pages, writes):
    """Sharded serving loop vs single-shot IcgmmSystem, bit for bit."""
    frozen = ServingConfig(
        chunk_requests=serving.chunk_requests,
        n_shards=serving.n_shards,
        sharding="hash",
        partition_pages=serving.partition_pages,
        strategy=serving.strategy,
        refresh_enabled=False,
    )
    system = IcgmmSystem(config)
    timestamps = transform_timestamps(
        pages.shape[0],
        config.len_window,
        config.len_access_shot,
        config.timestamp_mode,
    )
    features = np.column_stack(
        [pages.astype(np.float64), timestamps.astype(np.float64)]
    )
    prepared = PreparedWorkload(
        name="serving-drift",
        page_indices=pages,
        is_write=writes.copy(),
        scores=engine.score(features),
        page_frequency_scores=engine.page_scores(pages),
        engine=engine,
    )
    expected = system.run_strategy(prepared, serving.strategy).stats
    service, _, _ = run_service(
        engine,
        config,
        frozen,
        pages,
        writes,
        measure_from=int(pages.shape[0] * config.warmup_fraction),
    )
    return {
        "identical": bool(service.totals == expected),
        "single_shot_miss_rate": round(expected.miss_rate, 6),
        "serving_miss_rate": round(service.totals.miss_rate, 6),
    }


def run(smoke: bool, seed: int = 7) -> dict:
    """Run the full bench; returns the JSON payload."""
    if smoke:
        n_phase, hot_pages, n_train = 30_000, 1_200, 15_000
        n_sets = 64
        gmm = GmmEngineConfig(
            n_components=8, max_iter=20, max_train_samples=8_000
        )
    else:
        n_phase, hot_pages, n_train = 120_000, 3_000, 60_000
        n_sets = 128
        gmm = GmmEngineConfig(
            n_components=16, max_iter=30, max_train_samples=20_000
        )
    pages, writes, boundary = build_stream(
        n_phase, hot_pages, shift=4 * hot_pages, seed=seed
    )
    geometry = CacheGeometry(
        capacity_bytes=n_sets * 8 * 4096,
        block_bytes=4096,
        associativity=8,
    )
    config = IcgmmConfig(geometry=geometry, gmm=gmm)
    serving = ServingConfig(
        chunk_requests=4_096,
        n_shards=4,
        sharding="hash",
        partition_pages=PARTITION,
        strategy="gmm-caching-eviction",
        drift_baseline_chunks=2,
        drift_patience=2,
        refresh_cooldown_chunks=2,
    )
    frozen_engine = train_engine(pages, n_train, gmm, seed)
    oracle_engine = train_oracle(pages, boundary, n_train, gmm, seed)
    # Post-drift steady state: the last 60% of phase 2 (the leading
    # 40% is the drift-detection + refresh + cache-churn transient).
    measure_from = boundary + int(0.4 * n_phase)

    deployments = [
        ("frozen", frozen_engine, False, False),
        ("online", frozen_engine, True, False),
        ("online-async", frozen_engine, True, True),
        ("oracle", oracle_engine, False, False),
    ]
    results = []
    miss = {}
    for name, engine, refresh, background in deployments:
        deployment_serving = dataclasses.replace(
            serving, refresh_enabled=refresh, refresh_async=background
        )
        service, reports, elapsed = run_service(
            engine, config, deployment_serving, pages, writes,
            measure_from,
        )
        sections = service.pipeline.profiler.seconds
        stats = service.totals
        latency = service.shard_metrics.latency_model.average_access_time_us(
            stats
        )
        miss[name] = stats.miss_rate
        row = {
            "deployment": name,
            "post_drift_miss_rate": round(stats.miss_rate, 6),
            "post_drift_latency_us": round(latency, 3),
            "swaps": len(service.swaps),
            "final_generation": service.generation,
            "lost_accesses": lost_accesses(reports, pages.shape[0]),
            "refresh_inline_s": round(sections.get("refresh", 0.0), 4),
            "refresh_onpath_s": round(
                sections.get("refresh.onpath", 0.0), 6
            ),
            "elapsed_s": round(elapsed, 3),
        }
        results.append(row)
        print(
            f"{name:12s} post-drift miss {100 * stats.miss_rate:6.2f}%"
            f"  latency {latency:8.2f} us"
            f"  swaps {len(service.swaps)}"
        )

    gap = miss["frozen"] - miss["oracle"]
    recovered = (miss["frozen"] - miss["online"]) / gap if gap > 0 else 1.0
    print(f"recovered {100 * recovered:.1f}% of the frozen-oracle gap")
    stall = refresh_stall(results)
    print(
        f"refresh stall: on-path {stall['onpath_s']:.6f}s vs inline"
        f" {stall['inline_s']:.4f}s (fraction {stall['fraction']})"
    )

    parity = parity_check(frozen_engine, config, serving, pages, writes)
    print(
        f"parity: identical={parity['identical']}"
        f" (miss {100 * parity['serving_miss_rate']:.2f}%)"
    )
    return {
        "bench": "serving_drift",
        "smoke": smoke,
        "stream": {
            "n_accesses": int(pages.shape[0]),
            "phase_boundary": int(boundary),
            "hot_pages": hot_pages,
            "measure_from": int(measure_from),
        },
        "geometry": {
            "capacity_bytes": geometry.capacity_bytes,
            "block_bytes": geometry.block_bytes,
            "associativity": geometry.associativity,
            "n_sets": geometry.n_sets,
        },
        "serving": {
            "chunk_requests": serving.chunk_requests,
            "n_shards": serving.n_shards,
            "sharding": serving.sharding,
            "strategy": serving.strategy,
        },
        "results": results,
        "recovered_gap_fraction": round(recovered, 4),
        "refresh_stall": stall,
        "parity": parity,
    }


def refresh_stall(results: list[dict]) -> dict:
    """The async row's on-path refresh seconds against the online
    row's inline build seconds (``fraction`` is None without inline
    builds)."""
    rows = {row["deployment"]: row for row in results}
    inline = rows["online"]["refresh_inline_s"]
    onpath = rows["online-async"]["refresh_onpath_s"]
    return {
        "inline_s": inline,
        "onpath_s": onpath,
        "fraction": round(onpath / inline, 4) if inline > 0 else None,
        "threshold": MAX_ONPATH_FRACTION,
    }


def validate(payload: dict) -> list[str]:
    """Schema + acceptance check of an emitted payload."""
    problems = []
    for key in (
        "results",
        "recovered_gap_fraction",
        "refresh_stall",
        "parity",
    ):
        if key not in payload:
            problems.append(f"missing top-level {key!r}")
    if problems:
        return problems
    if not isinstance(payload["results"], list) or [
        row.get("deployment") for row in payload["results"]
    ] != list(DEPLOYMENTS):
        return [f"'results' must list the deployments {DEPLOYMENTS}"]
    for i, row in enumerate(payload["results"]):
        for fieldname, kind in RESULT_SCHEMA.items():
            if fieldname not in row:
                problems.append(f"results[{i}]: missing {fieldname!r}")
            elif kind is float:
                if not isinstance(row[fieldname], (int, float)):
                    problems.append(
                        f"results[{i}].{fieldname}: not numeric"
                    )
            elif not isinstance(row[fieldname], kind):
                problems.append(
                    f"results[{i}].{fieldname}:"
                    f" expected {kind.__name__}"
                )
    recovered = payload["recovered_gap_fraction"]
    if not isinstance(recovered, (int, float)):
        problems.append("recovered_gap_fraction: not numeric")
    elif recovered < 0.5:
        problems.append(
            "acceptance: online engine recovered"
            f" {recovered:.2%} < 50% of the frozen-oracle gap"
        )
    if not payload["parity"].get("identical", False):
        problems.append(
            "acceptance: sharded serving loop diverged from the"
            " single-shot IcgmmSystem run"
        )
    for row in payload["results"]:
        if row.get("lost_accesses") != 0:
            problems.append(
                f"acceptance: {row.get('deployment')} lost"
                f" {row.get('lost_accesses')} access(es)"
            )
    fraction = payload["refresh_stall"].get("fraction")
    async_swaps = payload["results"][
        DEPLOYMENTS.index("online-async")
    ].get("swaps")
    if not isinstance(async_swaps, int) or async_swaps < 1:
        # Without a landed build the on-path figure measured nothing.
        problems.append("acceptance: online-async landed no refresh")
    if not isinstance(fraction, (int, float)):
        problems.append(
            "acceptance: no inline refresh seconds to compare the"
            " async on-path stall against"
        )
    elif fraction > MAX_ONPATH_FRACTION:
        problems.append(
            f"acceptance: async on-path refresh stall is {fraction:.2%}"
            f" of the inline build (> {MAX_ONPATH_FRACTION:.0%})"
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
            "output JSON path (default: BENCH_serving_drift.json, or"
            " BENCH_serving_drift.smoke.json with --smoke)"
        ),
    )
    parser.add_argument("--seed", type=int, default=7)
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

    payload = run(smoke=args.smoke, seed=args.seed)
    output = args.output or (
        "BENCH_serving_drift.smoke.json"
        if args.smoke
        else "BENCH_serving_drift.json"
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
