"""Command-line interface.

Nine subcommands cover the common entry points without writing any
Python::

    python -m repro.cli generate-trace dlrm -n 100000 -o dlrm.npz
    python -m repro.cli run memtier --trace-length 120000
    python -m repro.cli suite --workloads memtier stream
    python -m repro.cli serve --workloads memtier stream --drift
    python -m repro.cli fabric memtier --devices 4 --placement score
    python -m repro.cli chaos --scenarios device_failure shard_stall
    python -m repro.cli metrics telemetry.json --format prom
    python -m repro.cli top telemetry.json
    python -m repro.cli hardware-report

``serve`` and ``fabric`` additionally accept ``--chaos-seed N`` to
run under the deterministic fault-injection demo plan (see
``docs/robustness.md``), and ``run``/``serve``/``fabric``/``chaos``
accept ``--telemetry-out PATH`` to capture the run's unified
telemetry (``docs/observability.md``) -- the export format follows
the suffix.  ``serve``/``fabric``/``chaos`` also accept ``--json`` to
emit the canonical telemetry snapshot on stdout instead of tables.
"""

from __future__ import annotations

import argparse
import json
import sys
import zipfile

import numpy as np

from repro.analysis import render_dict_table, render_table
from repro.chaos import (
    SCENARIO_NAMES,
    SERVING_SCENARIOS,
    recovery_chunk,
    run_fabric_scenario,
    run_serving_scenario,
    scenario_chaos,
    tail_miss_rate,
)
from repro.core.config import (
    PLACEMENTS,
    STRATEGIES,
    ChaosConfig,
    FabricTopology,
    GmmEngineConfig,
    IcgmmConfig,
    ParallelConfig,
    ServingConfig,
)
from repro.core.engine import GmmPolicyEngine
from repro.core.experiment import run_suite
from repro.core.pipeline import StagedPipeline, StageProfiler
from repro.cxl.fabric import CxlFabric
from repro.obs import SNAPSHOT_SCHEMA, Telemetry
from repro.hardware import (
    FpgaSpec,
    GmmEngineTiming,
    LstmEngineTiming,
    engine_speedup,
    estimate_gmm_engine,
    estimate_icgmm_system,
    estimate_lstm_engine,
)
from repro.serving import IcgmmCacheService
from repro.traces.io import (
    load_trace,
    save_trace_csv,
    save_trace_npz,
    stream_trace_chunks,
)
from repro.traces.mixing import multi_tenant_trace, relocate
from repro.traces.record import CACHE_LINE_SIZE, PAGE_SHIFT
from repro.traces.workloads import WORKLOAD_NAMES, get_workload


def _add_generate_trace(subparsers) -> None:
    parser = subparsers.add_parser(
        "generate-trace",
        help="generate a synthetic workload trace to a file",
    )
    parser.add_argument("workload", choices=WORKLOAD_NAMES)
    parser.add_argument(
        "-n", "--length", type=int, default=100_000,
        help="number of requests",
    )
    parser.add_argument(
        "-o", "--output", required=True,
        help="output path (.csv or .npz)",
    )
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument(
        "--uncompressed",
        action="store_true",
        help=(
            "store .npz members raw so streaming consumers"
            " (serve/fabric --trace) can memory-map them zero-copy"
        ),
    )
    parser.add_argument("--seed", type=int, default=42)


def _add_trace_argument(parser) -> None:
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help=(
            "replay a recorded trace file instead of generating"
            " synthetic traffic (.npz archives stored uncompressed"
            " stream through zero-copy memory-mapped slices; .csv"
            " through the chunked vectorized reader)"
        ),
    )


def _add_run(subparsers) -> None:
    parser = subparsers.add_parser(
        "run", help="run the ICGMM pipeline on one workload"
    )
    parser.add_argument("workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--trace-length", type=int, default=None)
    parser.add_argument("--components", type=int, default=None)
    _add_profile_argument(parser)
    _add_telemetry_arguments(parser, json_flag=False)
    parser.add_argument("--seed", type=int, default=42)


def _add_suite(subparsers) -> None:
    parser = subparsers.add_parser(
        "suite", help="run the Fig. 6 / Table 1 evaluation suite"
    )
    parser.add_argument(
        "--workloads",
        nargs="+",
        choices=WORKLOAD_NAMES,
        default=list(WORKLOAD_NAMES),
    )
    parser.add_argument("--trace-length", type=int, default=None)
    parser.add_argument("--seed", type=int, default=42)


def _add_serve(subparsers) -> None:
    parser = subparsers.add_parser(
        "serve",
        help=(
            "replay a multi-tenant stream through the online ICGMM"
            " cache service (sharded planes, drift-aware refresh)"
        ),
    )
    parser.add_argument(
        "--workloads",
        nargs="+",
        choices=WORKLOAD_NAMES,
        default=["memtier", "stream"],
        help="one tenant per workload",
    )
    _add_trace_argument(parser)
    parser.add_argument("--length", type=int, default=200_000)
    parser.add_argument("--chunk", type=int, default=8192)
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument(
        "--sharding", choices=("hash", "tenant"), default="hash"
    )
    parser.add_argument(
        "--strategy",
        choices=STRATEGIES,
        default="gmm-caching-eviction",
        help="Fig. 6 strategy driving the cache planes",
    )
    parser.add_argument("--components", type=int, default=None)
    parser.add_argument(
        "--train-fraction", type=_open_unit_fraction, default=0.3,
        help=(
            "leading stream fraction the offline engine trains on,"
            " in (0, 1)"
        ),
    )
    parser.add_argument(
        "--drift",
        action="store_true",
        help=(
            "shift every tenant's hot region at the stream midpoint"
            " (exercises the drift detector and model refresh)"
        ),
    )
    parser.add_argument(
        "--no-refresh",
        action="store_true",
        help="freeze the engine (the paper's deployment)",
    )
    parser.add_argument(
        "--report-every", type=int, default=8,
        help="chunks between progress lines",
    )
    _add_parallel_arguments(parser, "plane replays")
    _add_chaos_seed_argument(parser)
    _add_profile_argument(parser)
    _add_telemetry_arguments(parser)
    parser.add_argument("--seed", type=int, default=42)


def _add_chaos_seed_argument(parser) -> None:
    parser.add_argument(
        "--chaos-seed",
        type=int,
        default=None,
        help=(
            "run under the deterministic chaos demo plan seeded here"
            " (fault injection + graceful degradation; see"
            " docs/robustness.md)"
        ),
    )


def _chaos_from_args(args) -> ChaosConfig | None:
    if args.chaos_seed is None:
        return None
    return ChaosConfig.demo(args.chaos_seed)


def _add_telemetry_arguments(parser, json_flag: bool = True) -> None:
    parser.add_argument(
        "--telemetry-out",
        default=None,
        metavar="PATH",
        help=(
            "capture the run's unified telemetry and write it here;"
            " format follows the suffix (.prom Prometheus text,"
            " .trace.json/.perfetto.json Chrome trace-event JSON,"
            " anything else the canonical JSON snapshot)"
        ),
    )
    if json_flag:
        parser.add_argument(
            "--json",
            action="store_true",
            help=(
                "emit the canonical telemetry JSON snapshot (schema"
                f" {SNAPSHOT_SCHEMA}) on stdout instead of tables"
            ),
        )


def _telemetry_from_args(args) -> Telemetry | None:
    """A bundle when ``--telemetry-out``/``--json`` asked for one.

    ``None`` otherwise -- the instrumented layers then run their
    exact pre-telemetry code paths.
    """
    if args.telemetry_out is None and not getattr(
        args, "json", False
    ):
        return None
    return Telemetry(seed=args.seed)


def _finish_telemetry(args, telemetry, extra=None) -> None:
    """Write/print the requested exports at command end."""
    if telemetry is None:
        return
    if args.telemetry_out is not None:
        kind = telemetry.write(args.telemetry_out, extra=extra)
        print(
            f"wrote {kind} telemetry to {args.telemetry_out}",
            file=sys.stderr,
        )
    if getattr(args, "json", False):
        sys.stdout.write(telemetry.snapshot_json(extra=extra))


def _load_snapshot(path: str) -> dict | None:
    """Read and validate a canonical snapshot file (None on error)."""
    try:
        with open(path, encoding="utf-8") as handle:
            snapshot = json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    if (
        not isinstance(snapshot, dict)
        or snapshot.get("schema") != SNAPSHOT_SCHEMA
    ):
        print(
            f"error: {path} is not a {SNAPSHOT_SCHEMA} snapshot"
            " (capture one with --telemetry-out or --json)",
            file=sys.stderr,
        )
        return None
    return snapshot


def _add_profile_argument(parser) -> None:
    parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "print per-stage wall-clock (Prepare/Score/Simulate/"
            "Price) from the staged pipeline after the run"
        ),
    )


def _print_profile(pipeline) -> None:
    """Render an attached :class:`StageProfiler`'s stage table."""
    profiler = pipeline.profiler
    if profiler is None or not profiler.seconds:
        return
    print()
    print(
        render_table(
            ["stage", "calls", "seconds", "share %"],
            [
                [name, calls, seconds, 100.0 * share]
                for name, calls, seconds, share in profiler.rows()
            ],
        )
    )


def _open_unit_fraction(text: str) -> float:
    """argparse type: a float strictly between 0 and 1."""
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(
            f"must be in (0, 1), got {text}"
        )
    return value


def _worker_count(text: str) -> int:
    """argparse type: a worker count, ``0`` or more."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be >= 0 (0 = CPU count), got {text}"
        )
    return value


def _add_parallel_arguments(parser, what: str) -> None:
    """The shared ``--workers`` flag."""
    parser.add_argument(
        "--workers",
        type=_worker_count,
        default=1,
        help=(
            f"concurrent worker threads driving the {what}"
            " (0 = CPU count; 1 = sequential)"
        ),
    )


def _add_fabric(subparsers) -> None:
    parser = subparsers.add_parser(
        "fabric",
        help=(
            "replay a workload over a multi-device CXL fabric"
            " (vectorized per-device replay, per-link pricing)"
        ),
    )
    parser.add_argument("workload", choices=WORKLOAD_NAMES)
    _add_trace_argument(parser)
    parser.add_argument("--trace-length", type=int, default=None)
    parser.add_argument("--components", type=int, default=None)
    parser.add_argument("--devices", type=int, default=4)
    parser.add_argument(
        "--placement", choices=PLACEMENTS, default="interleave"
    )
    parser.add_argument(
        "--strategy",
        choices=STRATEGIES,
        default="gmm-caching-eviction",
        help="Fig. 6 strategy driving every device cache",
    )
    parser.add_argument(
        "--link-overhead-ns",
        type=int,
        nargs="+",
        default=None,
        help=(
            "per-device CXL link round-trip overhead (one value per"
            " device; models near/far fabric topologies)"
        ),
    )
    parser.add_argument(
        "--chunk",
        type=int,
        default=8192,
        help=(
            "requests per streamed ingest chunk (chaos mode replays"
            " through the streaming path)"
        ),
    )
    _add_parallel_arguments(parser, "per-device replays")
    _add_chaos_seed_argument(parser)
    _add_profile_argument(parser)
    _add_telemetry_arguments(parser)
    parser.add_argument("--seed", type=int, default=42)


def _add_chaos(subparsers) -> None:
    parser = subparsers.add_parser(
        "chaos",
        help=(
            "run the canonical fault-injection scenarios and report"
            " degradation + recovery against a no-fault baseline"
        ),
    )
    parser.add_argument(
        "--scenarios",
        nargs="+",
        choices=SCENARIO_NAMES,
        default=list(SCENARIO_NAMES),
    )
    parser.add_argument(
        "workload",
        nargs="?",
        choices=WORKLOAD_NAMES,
        default="memtier",
    )
    parser.add_argument("--length", type=int, default=60_000)
    parser.add_argument("--chunk", type=int, default=2048)
    parser.add_argument("--devices", type=int, default=4)
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--components", type=int, default=None)
    parser.add_argument(
        "--chaos-seed", type=int, default=0,
        help="seed of the deterministic fault plans",
    )
    parser.add_argument(
        "--monitor",
        action=argparse.BooleanOptionalAction,
        default=False,
        help=(
            "arm the fleet health monitor on fabric-layer scenarios:"
            " sick devices (fail-slow ramps, broken caches) are"
            " quarantined off the placement and reinstated after"
            " clean probation probes (--no-monitor: rely on failover"
            " alone)"
        ),
    )
    _add_parallel_arguments(parser, "scenario replays")
    _add_telemetry_arguments(parser)
    parser.add_argument("--seed", type=int, default=42)


def _add_metrics(subparsers) -> None:
    parser = subparsers.add_parser(
        "metrics",
        help=(
            "re-render a captured telemetry snapshot (Prometheus"
            " text, canonical JSON, Chrome trace-event JSON)"
        ),
    )
    parser.add_argument(
        "snapshot",
        help=(
            "canonical JSON snapshot file captured with"
            " --telemetry-out or --json"
        ),
    )
    parser.add_argument(
        "--format",
        choices=("prom", "json", "trace"),
        default="prom",
        help="output format (default: Prometheus text exposition)",
    )


def _add_top(subparsers) -> None:
    parser = subparsers.add_parser(
        "top",
        help=(
            "one-shot text dashboard over a captured telemetry"
            " snapshot (headline counters, rolling table, stages,"
            " recent failure events)"
        ),
    )
    parser.add_argument(
        "snapshot",
        help=(
            "canonical JSON snapshot file captured with"
            " --telemetry-out or --json"
        ),
    )


def _add_hardware_report(subparsers) -> None:
    subparsers.add_parser(
        "hardware-report",
        help="print the Table 2 / Sec. 5.1 hardware estimates",
    )


def _cmd_generate_trace(args) -> int:
    generator = get_workload(args.workload, scale=args.scale)
    rng = np.random.default_rng(args.seed)
    trace = generator.generate(args.length, rng)
    if args.output.endswith(".csv"):
        save_trace_csv(trace, args.output)
    elif args.output.endswith(".npz"):
        save_trace_npz(
            trace, args.output, compressed=not args.uncompressed
        )
    else:
        print("error: output must end in .csv or .npz", file=sys.stderr)
        return 2
    print(
        f"wrote {len(trace)} requests"
        f" ({trace.unique_page_count()} pages,"
        f" {trace.write_fraction():.1%} writes) to {args.output}"
    )
    return 0


def _config_from_args(args) -> IcgmmConfig:
    kwargs = {"seed": args.seed}
    if getattr(args, "trace_length", None) is not None:
        kwargs["trace_length"] = args.trace_length
    if getattr(args, "components", None) is not None:
        kwargs["gmm"] = GmmEngineConfig(n_components=args.components)
    return IcgmmConfig(**kwargs)


def _cmd_run(args) -> int:
    pipeline = StagedPipeline(_config_from_args(args))
    if args.profile:
        pipeline.profiler = StageProfiler()
    telemetry = _telemetry_from_args(args)
    if telemetry is not None:
        from repro.obs import bridge

        if pipeline.profiler is None:
            pipeline.profiler = StageProfiler()
        pipeline.telemetry = telemetry
        bridge.register_stage_profiler(
            telemetry.registry, pipeline.profiler
        )
    result = pipeline.run_benchmark(args.workload)
    rows = [
        [
            outcome.strategy,
            outcome.miss_rate_percent,
            outcome.average_time_us,
        ]
        for outcome in result.outcomes.values()
    ]
    print(
        render_table(
            ["strategy", "miss rate %", "avg access us"], rows
        )
    )
    print(
        f"best: {result.best_gmm.strategy}"
        f" (-{result.miss_reduction_points:.2f} pts,"
        f" -{result.time_reduction_percent:.1f}% time)"
    )
    if args.profile:
        _print_profile(pipeline)
    _finish_telemetry(
        args,
        telemetry,
        extra={
            "command": "run",
            "workload": args.workload,
            "best_strategy": result.best_gmm.strategy,
            "miss_reduction_points": float(
                result.miss_reduction_points
            ),
            "time_reduction_percent": float(
                result.time_reduction_percent
            ),
        },
    )
    return 0


def _cmd_suite(args) -> int:
    suite = run_suite(
        workloads=tuple(args.workloads),
        config=_config_from_args(args),
    )
    print(render_dict_table(suite.fig6_rows()))
    print()
    print(render_dict_table(suite.table1_rows()))
    return 0


def _cmd_serve(args) -> int:
    rng = np.random.default_rng(args.seed)
    config = _config_from_args(args)
    chaos = _chaos_from_args(args)
    telemetry = _telemetry_from_args(args)
    # --json owns stdout: informational output is suppressed so the
    # emitted snapshot is the whole (machine-parseable) stream.
    emit = (lambda *a, **k: None) if args.json else print
    generators = [
        get_workload(name, scale=config.workload_scale)
        for name in args.workloads
    ]
    weights = [1.0] * len(generators)
    try:
        serving = ServingConfig(
            chunk_requests=args.chunk,
            n_shards=args.shards,
            sharding=args.sharding,
            strategy=args.strategy,
            refresh_enabled=not args.no_refresh,
            parallel=ParallelConfig(workers=args.workers),
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    n_tenants = len(args.workloads)
    if (
        args.sharding == "tenant"
        and not args.trace
        and n_tenants < args.shards
    ):
        # Tenant t replays into plane t % shards: a plane no tenant
        # maps to never holds a block, and its capacity is lost.
        print(
            f"error: --sharding tenant splits the cache into"
            f" {args.shards} shard planes, but the stream has only"
            f" {n_tenants} tenant(s) (--workloads); lower --shards"
            f" to at most {n_tenants} or add workloads",
            file=sys.stderr,
        )
        return 2

    step = serving.chunk_requests * max(1, args.report_every)
    pages = is_write = chunk_iter = None
    if args.trace:
        if args.drift:
            print(
                "error: --drift shapes synthetic traffic and cannot"
                " be combined with --trace",
                file=sys.stderr,
            )
            return 2
        # Streaming ingest: the trace is consumed in report-window
        # chunks (memory-mapped slices for stored .npz archives,
        # vectorized parses for .csv) and never fully materializes;
        # only the training prefix is held transiently.
        try:
            length, chunk_iter = stream_trace_chunks(
                args.trace, step
            )
        except (OSError, ValueError, zipfile.BadZipFile) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    elif args.drift:
        half = args.length // 2
        head = multi_tenant_trace(
            generators, weights, half, rng,
            partition_pages=serving.partition_pages,
        )
        shifted = [
            get_workload(name, scale=config.workload_scale)
            for name in args.workloads
        ]
        tail = relocate(
            multi_tenant_trace(
                shifted, weights, args.length - half, rng,
                partition_pages=serving.partition_pages,
            ),
            base_page=serving.partition_pages // 8,
        )
        pages = np.concatenate(
            [head.addresses >> PAGE_SHIFT, tail.addresses >> PAGE_SHIFT]
        )
        is_write = np.concatenate([head.is_write, tail.is_write])
        length = len(pages)
    else:
        trace = multi_tenant_trace(
            generators, weights, args.length, rng,
            partition_pages=serving.partition_pages,
        )
        pages = trace.addresses >> PAGE_SHIFT
        is_write = trace.is_write
        length = len(pages)

    n_train = min(
        length,
        max(
            config.gmm.n_components + 1,
            int(length * args.train_fraction),
        ),
    )
    if n_train <= config.gmm.n_components:
        source = (
            f"--trace {args.trace}"
            if args.trace
            else f"--length {args.length}"
        )
        print(
            f"error: {source} leaves only {n_train}"
            f" training requests for K={config.gmm.n_components};"
            " raise the stream length or lower --components",
            file=sys.stderr,
        )
        return 2
    buffered: list = []
    if args.trace:
        got = 0
        for trace_chunk in chunk_iter:
            buffered.append(trace_chunk)
            got += len(trace_chunk)
            if got >= n_train:
                break
        train_pages = (
            np.concatenate(
                [c.page_indices() for c in buffered]
            )[:n_train]
            if buffered
            else np.empty(0, dtype=np.int64)
        )
    else:
        train_pages = pages[:n_train]
    features = StagedPipeline(config).chunk_features(train_pages, 0)
    emit(
        f"training offline engine on {n_train:,} requests"
        + (
            f" from {args.trace}..."
            if args.trace
            else f" ({len(args.workloads)} tenants)..."
        )
    )
    engine = GmmPolicyEngine.train(features, config.gmm, rng)
    try:
        service = IcgmmCacheService(
            engine,
            config=config,
            serving=serving,
            measure_from=n_train,
            chaos=chaos,
            telemetry=telemetry,
        )
    except ValueError as exc:  # e.g. --shards not dividing the sets
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # Telemetry already hangs a profiler on the pipeline; replacing
    # it would orphan the registered collector.
    if args.profile and service.pipeline.profiler is None:
        service.pipeline.profiler = StageProfiler()

    def _windows():
        if args.trace:
            # Buffered training-prefix chunks replay first (popped as
            # they go so parsed CSV prefixes free immediately), then
            # the rest of the stream straight off the iterator.
            while buffered:
                trace_chunk = buffered.pop(0)
                yield (
                    trace_chunk.page_indices(),
                    np.asarray(trace_chunk.is_write),
                )
            for trace_chunk in chunk_iter:
                yield (
                    trace_chunk.page_indices(),
                    np.asarray(trace_chunk.is_write),
                )
        else:
            for start in range(0, length, step):
                yield (
                    pages[start : start + step],
                    is_write[start : start + step],
                )

    try:
        for window_pages, window_writes in _windows():
            reports = service.ingest(window_pages, window_writes)
            window_hits = sum(r.stats.hits for r in reports)
            window_total = sum(r.stats.accesses for r in reports)
            window_miss = (
                100.0 * (1.0 - window_hits / window_total)
                if window_total
                else 0.0
            )
            swapped = any(r.swapped for r in reports)
            emit(
                f"  cursor {service.access_cursor:>9,d}"
                f"  window miss {window_miss:6.2f}%"
                f"  generation {service.generation}"
                f"{'  [engine swapped]' if swapped else ''}"
            )
        summary = service.summary()
    finally:
        # Deterministic teardown even on a failed ingest: the
        # executor pool must not leak.
        service.close()
    emit()
    emit(
        render_table(
            ["shard", "miss rate %", "latency us", "traffic %"],
            [
                [
                    key,
                    100 * row["miss_rate"],
                    row["latency_us"],
                    100 * row["traffic_share"],
                ]
                for key, row in sorted(summary["shards"].items())
            ],
        )
    )
    emit()
    emit(
        render_table(
            ["tenant", "miss rate %", "latency us", "traffic %"],
            [
                [
                    key,
                    100 * row["miss_rate"],
                    row["latency_us"],
                    100 * row["traffic_share"],
                ]
                for key, row in sorted(summary["tenants"].items())
            ],
        )
    )
    emit(
        f"\ntotal: {summary['accesses']:,} measured accesses,"
        f" miss rate {100 * summary['miss_rate']:.2f}%,"
        f" {len(summary['swaps'])} engine swap(s),"
        f" generation {summary['generation']}"
    )
    if "chaos" in summary:
        chaos = summary["chaos"]
        emit(
            f"chaos: {len(chaos['timeline'])} fault(s)"
            f" [{chaos['timeline_digest'][:12]}],"
            f" {len(chaos['events'])} event(s),"
            f" {chaos['refresh_failures']}/{chaos['refresh_attempts']}"
            " refresh failures"
        )
        for event in chaos["events"]:
            emit(
                f"  chunk {event['chunk_index']:>5d}"
                f"  {event['key']:<10s} {event['kind']}"
            )
    # The stage table stays an explicit --profile opt-in (and --json
    # owns stdout).
    if args.profile and not args.json:
        _print_profile(service.pipeline)
    _finish_telemetry(
        args,
        telemetry,
        extra={"command": "serve", "summary": summary},
    )
    return 0


def _cmd_fabric(args) -> int:
    config = _config_from_args(args)
    try:
        topology = FabricTopology(
            n_devices=args.devices,
            placement=args.placement,
            link_overhead_ns=(
                tuple(args.link_overhead_ns)
                if args.link_overhead_ns is not None
                else None
            ),
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    chaos = _chaos_from_args(args)
    telemetry = _telemetry_from_args(args)
    emit = (lambda *a, **k: None) if args.json else print
    trace = None
    if args.trace:
        # A stored .npz opens memory-mapped: the raw columns stay on
        # disk and only the spans preprocessing touches fault in.
        try:
            trace = load_trace(args.trace)
        except (OSError, ValueError, zipfile.BadZipFile) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    fabric = CxlFabric(
        topology,
        config=config,
        parallel=ParallelConfig(workers=args.workers),
        chaos=chaos,
        telemetry=telemetry,
    )
    # Telemetry already hangs a profiler on the pipeline; replacing
    # it would orphan the registered collector.
    if args.profile and fabric.pipeline.profiler is None:
        fabric.pipeline.profiler = StageProfiler()
    emit(
        f"preparing {args.workload} through the staged pipeline"
        f" ({args.devices} devices, {args.placement} placement,"
        f" {fabric.parallel.workers} worker(s)"
        f"{f', trace {args.trace}' if args.trace else ''}"
        f"{', chaos on' if chaos is not None else ''})..."
    )
    try:
        prepared = fabric.pipeline.prepare(
            args.workload, trace=trace
        )
        # Under chaos, run_prepared replays chunk by chunk through
        # ingest, where the faults hook in.
        try:
            result = fabric.run_prepared(
                prepared, args.strategy, chunk_requests=args.chunk
            )
        except ValueError as exc:  # e.g. --chunk below 1
            print(f"error: {exc}", file=sys.stderr)
            return 2
    finally:
        # Deterministic teardown: the executor pool must not outlive
        # the command, even when preparation or replay raises.
        fabric.close()
    emit()
    emit(
        render_table(
            [
                "device",
                "accesses",
                "miss rate %",
                "avg latency us",
                "link ns",
            ],
            [
                [
                    device.device_id,
                    device.accesses,
                    100 * device.stats.miss_rate,
                    device.average_latency_us,
                    device.link.request_latency_ns(CACHE_LINE_SIZE),
                ]
                for device in result.devices
            ],
        )
    )
    totals = result.totals
    emit(
        f"\nfleet: {totals.accesses:,} measured accesses,"
        f" miss rate {100 * totals.miss_rate:.2f}%,"
        f" avg latency {result.average_latency_us:.1f} us"
        f" ({args.strategy})"
    )
    if fabric.injector is not None:
        failover = sum(
            d.failover_stats.accesses
            for d in result.devices
            if d.failover_stats is not None
        )
        degraded_ns = sum(d.degraded_time_ns for d in result.devices)
        emit(
            f"chaos: {len(fabric.injector.timeline())} fault(s)"
            f" [{fabric.injector.timeline_digest()[:12]}],"
            f" {failover:,} failover accesses,"
            f" {degraded_ns:,} ns degraded-link premium"
        )
        for event in fabric.metrics.events():
            emit(
                f"  chunk {event.chunk_index:>5d}"
                f"  {event.key:<10s} {event.kind}"
            )
    # Telemetry also attaches a profiler; the stage table stays an
    # explicit --profile opt-in (and --json owns stdout).
    if args.profile and not args.json:
        _print_profile(fabric.pipeline)
    _finish_telemetry(
        args,
        telemetry,
        extra={
            "command": "fabric",
            "workload": args.workload,
            "strategy": args.strategy,
            "accesses": int(totals.accesses),
            "miss_rate": float(totals.miss_rate),
            "average_latency_us": float(result.average_latency_us),
            "devices": [
                {
                    "device": int(device.device_id),
                    "accesses": int(device.accesses),
                    "miss_rate": float(device.stats.miss_rate),
                    "average_latency_us": float(
                        device.average_latency_us
                    ),
                }
                for device in result.devices
            ],
        },
    )
    return 0


def _cmd_chaos(args) -> int:
    rng = np.random.default_rng(args.seed)
    config = _config_from_args(args)
    telemetry = _telemetry_from_args(args)
    emit = (lambda *a, **k: None) if args.json else print
    # Phase-shifted stream (as ``serve --drift``): the hot region
    # moves at the midpoint so the refresh loop actually runs --
    # otherwise the refresh-fault channel has nothing to hit.
    half = args.length // 2
    head = get_workload(
        args.workload, scale=config.workload_scale
    ).generate(half, rng)
    tail = relocate(
        get_workload(
            args.workload, scale=config.workload_scale
        ).generate(args.length - half, rng),
        base_page=1 << 17,
    )
    pages = np.concatenate(
        [head.addresses >> PAGE_SHIFT, tail.addresses >> PAGE_SHIFT]
    )
    is_write = np.concatenate([head.is_write, tail.is_write])
    parallel = ParallelConfig(workers=args.workers)
    topology = FabricTopology(n_devices=args.devices)
    try:
        serving = ServingConfig(
            chunk_requests=args.chunk,
            n_shards=args.shards,
            sharding="hash",
            strategy="gmm-caching-eviction",
            refresh_enabled=True,
            refresh_cooldown_chunks=2,
            # Soft resilience knobs: quick backoff and a late breaker
            # so the refresh-failure scenario can land a good build
            # before the stream ends (the breaker path itself is
            # exercised deterministically in tests/chaos).
            refresh_backoff_chunks=1,
            refresh_breaker_threshold=4,
            quarantine_chunks=8,
            parallel=parallel,
        )
    except ValueError as exc:  # e.g. --chunk below 1
        print(f"error: {exc}", file=sys.stderr)
        return 2

    engine = None
    if any(name in SERVING_SCENARIOS for name in args.scenarios):
        n_train = max(
            config.gmm.n_components + 1, int(len(pages) * 0.3)
        )
        features = StagedPipeline(config).chunk_features(
            pages[:n_train], 0
        )
        emit(f"training engine on {n_train:,} requests...")
        engine = GmmPolicyEngine.train(features, config.gmm, rng)

    def run(name, chaos, telemetry=None):
        if name in SERVING_SCENARIOS:
            return run_serving_scenario(
                chaos, engine, pages, is_write,
                config=config, serving=serving,
                telemetry=telemetry,
            )
        return run_fabric_scenario(
            chaos, pages, is_write,
            topology=topology, config=config,
            chunk_requests=args.chunk, parallel=parallel,
            monitor=args.monitor, telemetry=telemetry,
        )

    baselines = {}
    rows = []
    scorecard = []
    for name in args.scenarios:
        layer = "serving" if name in SERVING_SCENARIOS else "fabric"
        if layer not in baselines:
            baselines[layer] = run(name, None)
        base = baselines[layer]
        # Faults are planned over the leading 70% of the stream so
        # the trailing chunks form a clean post-recovery window --
        # except fail-slow ramps, which clamp to the stream's end: a
        # sick device never recovers by waiting, so the whole run is
        # its tail and only quarantine (--monitor) improves it.
        n_chunks = -(-len(pages) // args.chunk)
        horizon = max(1, (7 * n_chunks) // 10)
        if name == "device_failslow":
            horizon = n_chunks
        out = run(
            name,
            scenario_chaos(
                name, args.chaos_seed, horizon_chunks=horizon
            ),
            telemetry=telemetry,
        )
        recover_at = recovery_chunk(out["timeline"], out["events"])
        tail = tail_miss_rate(out["chunk_counters"], recover_at)
        base_tail = tail_miss_rate(base["chunk_counters"], recover_at)
        monitor = out.get("monitor") or {}
        rows.append(
            [
                name,
                layer,
                len(out["timeline"]),
                out["accesses"],
                100 * out["miss_rate"],
                100 * base["miss_rate"],
                100 * tail,
                100 * base_tail,
                monitor.get("quarantines", 0),
            ]
        )
        scorecard.append(
            {
                "scenario": name,
                "layer": layer,
                "faults": len(out["timeline"]),
                "timeline_digest": out["timeline_digest"],
                "accesses": int(out["accesses"]),
                "miss_rate": float(out["miss_rate"]),
                "baseline_miss_rate": float(base["miss_rate"]),
                "tail_miss_rate": float(tail),
                "baseline_tail_miss_rate": float(base_tail),
                "quarantines": int(monitor.get("quarantines", 0)),
                "reinstatements": int(
                    monitor.get("reinstatements", 0)
                ),
                "monitor_digest": monitor.get(
                    "decision_digest", ""
                ),
            }
        )
    emit()
    emit(
        render_table(
            [
                "scenario",
                "layer",
                "faults",
                "accesses",
                "miss %",
                "base %",
                "tail %",
                "base tail %",
                "quarantines",
            ],
            rows,
        )
    )
    _finish_telemetry(
        args,
        telemetry,
        extra={"command": "chaos", "scenarios": scorecard},
    )
    return 0


def _cmd_metrics(args) -> int:
    from repro.obs.export import (
        chrome_trace_json,
        prometheus_text,
        snapshot_json,
    )

    snapshot = _load_snapshot(args.snapshot)
    if snapshot is None:
        return 2
    if args.format == "prom":
        sys.stdout.write(
            prometheus_text(snapshot.get("metrics", []))
        )
    elif args.format == "trace":
        sys.stdout.write(
            chrome_trace_json(
                snapshot.get("spans", []),
                snapshot.get("events", []),
            )
        )
    else:
        sys.stdout.write(snapshot_json(snapshot))
    return 0


def _cmd_top(args) -> int:
    from repro.obs.dashboard import render_top

    snapshot = _load_snapshot(args.snapshot)
    if snapshot is None:
        return 2
    sys.stdout.write(render_top(snapshot))
    return 0


def _cmd_hardware_report(_args) -> int:
    fpga = FpgaSpec()
    gmm = estimate_gmm_engine()
    lstm = estimate_lstm_engine()
    gmm_timing = GmmEngineTiming()
    lstm_timing = LstmEngineTiming()
    print(
        render_table(
            ["engine", "BRAM", "DSP", "LUT", "FF", "latency"],
            [
                ["LSTM", lstm.bram, lstm.dsp, lstm.lut, lstm.ff,
                 f"{lstm_timing.latency_us(fpga) / 1000:.1f} ms"],
                ["GMM", gmm.bram, gmm.dsp, gmm.lut, gmm.ff,
                 f"{gmm_timing.latency_us(fpga):.1f} us"],
            ],
        )
    )
    system = estimate_icgmm_system()
    utilization = system.utilization(fpga)
    print(
        f"system: {system.bram} BRAM ({utilization['bram']:.0%}),"
        f" {system.dsp} DSP ({utilization['dsp']:.0%});"
        f" speedup"
        f" {engine_speedup(lstm_timing, gmm_timing, fpga):,.0f}x"
    )
    return 0


_COMMANDS = {
    "generate-trace": _cmd_generate_trace,
    "run": _cmd_run,
    "suite": _cmd_suite,
    "serve": _cmd_serve,
    "fabric": _cmd_fabric,
    "chaos": _cmd_chaos,
    "metrics": _cmd_metrics,
    "top": _cmd_top,
    "hardware-report": _cmd_hardware_report,
}


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ICGMM reproduction command-line interface",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_generate_trace(subparsers)
    _add_run(subparsers)
    _add_suite(subparsers)
    _add_serve(subparsers)
    _add_fabric(subparsers)
    _add_chaos(subparsers)
    _add_metrics(subparsers)
    _add_top(subparsers)
    _add_hardware_report(subparsers)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
