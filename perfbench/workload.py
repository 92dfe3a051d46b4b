"""One workload run, in its own single-threaded process.

Sets the program up several times, replays the workload's trace
through it until ``--seconds`` of measured time and at least
:data:`~perfbench.spec.MIN_CHUNKS` timed chunks have been collected,
checks every output, and writes a result record (metrics, host
fingerprint, checks) as JSON.  ``perfbench/run.py`` starts it with the
BLAS thread variables set to 1 and prints the record.

The load is a closed loop with one client: the next chunk is read only
after ``ingest`` (or the fabric replay) returns.  After every timed
call the host reference kernel runs (:mod:`perfbench.hostref`), and
the reported times are normalised by it.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import resource
import statistics
import time
from contextlib import closing, nullcontext
from pathlib import Path

import numpy as np

from perfbench.checks import (
    chunk_digest,
    fabric_replay_problems,
    serve_chunk_problems,
    serve_pass_problems,
    tail_percentile,
)
from perfbench.hostref import HostReference, host_fingerprint
from perfbench.layers import CHUNK, SETUP, TRACES_IO, layer_metrics, traced
from perfbench.spans import SpanRecorder
from perfbench.spec import (
    CHUNK_REQUESTS,
    MIN_CHUNKS,
    SETUP_REPEATS,
    STREAMS,
    TRAIN_FRACTION,
    WORKLOADS,
    Workload,
)
from repro.core.config import (
    STRATEGIES,
    FabricTopology,
    IcgmmConfig,
    ParallelConfig,
    ServingConfig,
)
from repro.core.engine import GmmPolicyEngine
from repro.core.pipeline import StagedPipeline
from repro.cxl.fabric import CxlFabric
from repro.serving.service import IcgmmCacheService
from repro.traces.io import load_trace, stream_trace_chunks
from repro.traces.preprocess import transform_timestamps

#: Strategy whose simulated figures are reported, and its baseline.
GMM, LRU = "gmm-caching-eviction", "lru"

SERIAL = ParallelConfig(workers=1)


class Window:
    """Timed calls of a run: raw and normalised seconds, accesses."""

    def __init__(self, host: HostReference) -> None:
        self.host = host
        self.raw: list[float] = []
        self.norm: list[float] = []
        self.accesses = 0
        self.wall = 0.0

    def add(self, raw_s: float, accesses: int) -> None:
        """Record one timed call and run the reference kernel after it."""
        started = time.perf_counter()
        self.norm.append(self.host.after_call(raw_s))
        self.raw.append(raw_s)
        self.accesses += accesses
        self.wall += raw_s + time.perf_counter() - started

    def full(self, seconds: float) -> bool:
        return self.wall >= seconds and len(self.raw) >= MIN_CHUNKS

    def throughput(self) -> float:
        """Accesses per normalised second."""
        return self.accesses / sum(self.norm)


class Outcome:
    """Accesses attempted and failed, plus what failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def charge(self, accesses: int, failed: int, problems: list[str]) -> None:
        self.attempted += accesses
        self.failed += failed
        self.problems.extend(problems)


def simulated_row(stats, time_us: float, **extra) -> dict:
    """Measured counters and priced time of one replay, poolable
    across streams (:func:`pooled`)."""
    return {
        "accesses": stats.accesses,
        "misses": stats.misses,
        "time_us": time_us,
        "stats": dataclasses.asdict(stats),
        **extra,
    }


def pooled(rows: list[dict]) -> dict:
    """Miss rate and average access time over several replays."""
    accesses = sum(row["accesses"] for row in rows)
    return {
        "miss_rate_pct": 100.0 * sum(row["misses"] for row in rows) / accesses,
        "avg_access_us": sum(row["time_us"] for row in rows) / accesses,
    }


class ServeBench:
    """``IcgmmCacheService`` fed chunk by chunk from a trace file."""

    def __init__(self, workload, path, truth, seed, stream, outcome) -> None:
        self.path = path
        self.truth = truth
        self.rng_key = (seed, stream)
        self.outcome = outcome
        self.config = IcgmmConfig(seed=seed, parallel=SERIAL)
        self.length = truth["length"]
        self.n_train = int(self.length * TRAIN_FRACTION)
        self.n_chunks = math.ceil(self.length / CHUNK_REQUESTS)
        self.engine: GmmPolicyEngine | None = None

    def service(self, strategy: str) -> IcgmmCacheService:
        serving = ServingConfig(
            chunk_requests=CHUNK_REQUESTS,
            strategy=strategy,
            refresh_enabled=strategy != LRU,
            parallel=SERIAL,
        )
        return IcgmmCacheService(
            self.engine,
            config=self.config,
            serving=serving,
            measure_from=self.n_train,
        )

    def setup(self) -> None:
        """Trace open, training prefix, engine training, service."""
        config = self.config
        _, chunks = stream_trace_chunks(self.path, CHUNK_REQUESTS)
        parts, got = [], 0
        with closing(chunks):
            for chunk in chunks:
                parts.append(chunk.page_indices())
                got += len(chunk)
                if got >= self.n_train:
                    break
        timestamps = transform_timestamps(
            self.n_train,
            config.len_window,
            config.len_access_shot,
            config.timestamp_mode,
        )
        features = np.column_stack(
            [
                np.concatenate(parts)[: self.n_train].astype(np.float64),
                timestamps.astype(np.float64),
            ]
        )
        self.engine = GmmPolicyEngine.train(
            features, config.gmm, np.random.default_rng(self.rng_key)
        )
        self.service(GMM).close()

    def check_inputs(self) -> list[str]:
        return []  # every chunk is checked against its digest

    def replay(
        self,
        strategy: str,
        window: Window | None = None,
        recorder: SpanRecorder | None = None,
    ) -> dict:
        """Ingest the whole stream, timing chunks past the training
        prefix into ``window``; returns the simulated figures."""
        service = self.service(strategy)
        digests = self.truth["digests"]
        problems, chunk_failures, reports_seen = [], 0, 0
        _, chunks = stream_trace_chunks(self.path, CHUNK_REQUESTS)
        with closing(chunks), closing(service):
            for index in range(self.n_chunks):
                timed = window is not None and (
                    index * CHUNK_REQUESTS >= self.n_train
                )
                spans = recorder is not None and timed
                if spans:
                    recorder.chunk += 1
                    root = recorder.begin(CHUNK)
                    io = recorder.begin(TRACES_IO)
                started = time.perf_counter()
                chunk = next(chunks, None)
                if chunk is None:
                    if spans:
                        recorder.end(io)
                        recorder.end(root)
                    problems.append(f"stream ended after {index} chunks")
                    break
                pages = chunk.page_indices()
                writes = np.asarray(chunk.is_write)
                if spans:
                    recorder.end(io, len(pages))
                reports = service.ingest(pages, writes)
                elapsed = time.perf_counter() - started
                if spans:
                    recorder.end(root)
                    recorder.counters["unique_pages"] += len(np.unique(pages))
                    recorder.counters["swaps"] += sum(r.swapped for r in reports)
                if timed:
                    window.add(elapsed, len(pages))
                reports_seen += len(reports)
                found = serve_chunk_problems(
                    index,
                    pages,
                    writes,
                    reports,
                    digests[index],
                    CHUNK_REQUESTS,
                    self.n_train,
                )
                if found:
                    chunk_failures += len(pages)
                    problems.extend(found)
            if next(chunks, None) is not None:
                problems.append(f"stream longer than {self.n_chunks} chunks")
            totals = service.totals
            whole = serve_pass_problems(
                self.length,
                CHUNK_REQUESTS,
                reports_seen,
                service.access_cursor,
                self.n_train,
                totals,
                [
                    service.shard_metrics.total(k)
                    for k in service.shard_metrics.keys()
                ],
                [
                    service.tenant_metrics.total(k)
                    for k in service.tenant_metrics.keys()
                ],
            )
            price = service.pipeline.price(strategy, totals)
            row = simulated_row(
                totals,
                price.average_time_us * totals.accesses,
                swaps=len(service.swaps),
            )
        # A fault in the pass as a whole spoils every access in it.
        failed = self.length if whole or reports_seen < self.n_chunks else (
            chunk_failures
        )
        self.outcome.charge(self.length, failed, problems + whole)
        return {strategy: row}

    def reference(self) -> dict:
        """The untimed, untraced LRU replay of the same stream."""
        return self.replay(LRU)

    def timed_pass(self, window: Window, recorder=None) -> dict:
        return self.replay(GMM, window, recorder)


class FabricBench:
    """Fig. 6 over a ``CxlFabric``: prepare once, replay each strategy."""

    def __init__(self, workload, path, truth, seed, stream, outcome) -> None:
        self.workload = workload
        self.path = path
        self.truth = truth
        self.rng_key = (seed, stream)
        self.outcome = outcome
        self.config = IcgmmConfig(
            seed=seed, train_fraction=TRAIN_FRACTION, parallel=SERIAL
        )
        self.topology = FabricTopology()
        self.prepared = None

    def setup(self) -> None:
        """Trace open, ``StagedPipeline.prepare``, fabric construction."""
        self.prepared = StagedPipeline(self.config).prepare(
            self.workload.tenants[0],
            trace=load_trace(self.path),
            rng=np.random.default_rng(self.rng_key),
        )
        CxlFabric(self.topology, config=self.config).close()

    def check_inputs(self) -> list[str]:
        trace = load_trace(self.path)
        if chunk_digest(trace.page_indices(), trace.is_write) != (
            self.truth["digest"]
        ):
            return ["the loaded trace differs from the generated one"]
        return []

    def expected_devices(self) -> list[int]:
        """Measured accesses per device: interleaved placement, then
        each device's own warm-up cut."""
        n = self.topology.n_devices
        counts = np.bincount(self.prepared.page_indices % n, minlength=n)
        cut = self.config.warmup_fraction
        return [int(c) - int(int(c) * cut) for c in counts]

    def replay(self, window=None, recorder=None) -> dict:
        """One Fig. 6 round: every strategy replayed on a fresh fabric.

        The prepared workload is re-wrapped per round so its memoised
        page-score map is rebuilt once per round, as in a single run.
        """
        prepared = dataclasses.replace(self.prepared)
        expected = self.expected_devices()
        figures = {}
        for strategy in STRATEGIES:
            with CxlFabric(self.topology, config=self.config) as fabric:
                if recorder is not None:
                    recorder.chunk += 1
                    root = recorder.begin(CHUNK)
                started = time.perf_counter()
                result = fabric.run_prepared(prepared, strategy)
                elapsed = time.perf_counter() - started
                if recorder is not None:
                    recorder.end(root)
            if window is not None:
                window.add(elapsed, len(prepared))
            problems = fabric_replay_problems(
                [device.accesses for device in result.devices], expected
            )
            self.outcome.charge(
                len(prepared), len(prepared) if problems else 0, problems
            )
            figures[strategy] = simulated_row(
                result.totals, result.total_time_ns / 1e3
            )
        return figures

    def reference(self) -> dict:
        """An untimed, untraced warm-up round; its LRU replay is the
        baseline and every timed round must reproduce it."""
        return self.replay()

    def timed_pass(self, window: Window, recorder=None) -> dict:
        return self.replay(window, recorder)


def consistency_problems(rounds: list[dict]) -> list[str]:
    """Replays of one stream under one strategy must agree exactly."""
    problems = []
    for strategy in STRATEGIES:
        rows = [r[strategy] for r in rounds if strategy in r]
        if any(row != rows[0] for row in rows[1:]):
            problems.append(
                f"{strategy}: simulated results differ between replays"
                " of the same stream"
            )
    return problems


def run(
    workload: Workload, inputs: Path, seed: int, seconds: float, trace: bool
) -> tuple[dict, SpanRecorder]:
    """Set up, replay and check one workload; returns its record.

    The run replays :data:`~perfbench.spec.STREAMS` independent streams
    in turn and pools their timed chunks, so that no single stream's
    refresh history sets the run's figures.
    """
    truth = json.loads((inputs / "truth.json").read_text())["streams"]
    outcome = Outcome()
    bench_cls = ServeBench if workload.kind == "serve" else FabricBench
    benches = [
        bench_cls(
            workload,
            inputs / f"trace-{stream}{workload.suffix}",
            truth[stream],
            seed,
            stream,
            outcome,
        )
        for stream in range(STREAMS)
    ]
    recorder = SpanRecorder()
    host = HostReference()

    setups, raw_setups = [], []
    with traced(recorder) if trace else nullcontext():
        for index in range(max(SETUP_REPEATS, STREAMS)):
            gc.collect()
            with recorder.span(SETUP) if trace else nullcontext():
                started = time.perf_counter()
                benches[index % STREAMS].setup()
                raw_setups.append(time.perf_counter() - started)
            setups.append(host.after_call(raw_setups[-1]))
    rounds = []
    for bench in benches:
        outcome.problems.extend(bench.check_inputs())
        rounds.append([bench.reference()])

    def replay_streams(window: Window, recorder=None) -> None:
        for bench, stream_rounds in zip(benches, rounds):
            gc.collect()
            stream_rounds.append(bench.timed_pass(window, recorder))

    if trace:
        # Untraced timed passes: the baseline of the tracing overhead.
        untraced = Window(host)
        while len(untraced.raw) < MIN_CHUNKS // 4:
            replay_streams(untraced)
    window = Window(host)
    with traced(recorder) if trace else nullcontext():
        while not window.full(seconds):
            replay_streams(window, recorder if trace else None)
    inconsistent = [p for r in rounds for p in consistency_problems(r)]
    if inconsistent:
        outcome.charge(0, outcome.attempted - outcome.failed, inconsistent)

    simulated = {
        strategy: pooled([r[-1][strategy] for r in rounds])
        for strategy in rounds[0][-1]
    }
    simulated[LRU] = pooled([r[0][LRU] for r in rounds])
    gmm, lru = simulated[GMM], simulated[LRU]
    raw_throughput = window.accesses / sum(window.raw)
    if trace:
        values = layer_metrics(
            recorder,
            recorder.counters["unique_pages"],
            recorder.counters["swaps"],
        )
        values["tracing.overhead_pct"] = (
            100.0 * (untraced.throughput() / window.throughput() - 1.0),
            "%",
        )
        values["host.ref_kernel_ms"] = (1e3 * host.median_s, "ms")
        values["host.raw_throughput_acc_s"] = (raw_throughput, "acc/s")
    else:
        ms = [1e3 * s for s in window.norm]
        values = {
            "throughput_acc_s": (window.throughput(), "acc/s"),
            "chunk_p50_ms": (tail_percentile(ms, 50), "ms"),
            "chunk_p90_ms": (tail_percentile(ms, 90), "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MB",
            ),
            "miss_rate_pct": (gmm["miss_rate_pct"], "%"),
            "avg_access_us": (gmm["avg_access_us"], "us"),
            "miss_ratio_vs_lru": (
                gmm["miss_rate_pct"] / lru["miss_rate_pct"],
                "ratio",
            ),
            "latency_ratio_vs_lru": (
                gmm["avg_access_us"] / lru["avg_access_us"],
                "ratio",
            ),
        }
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "fingerprint": host_fingerprint(seed),
        "correct": outcome.failed == 0 and not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems[:20],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()
        },
        "diagnostics": {
            "host.ref_kernel_ms": 1e3 * host.median_s,
            "host.raw_throughput_acc_s": raw_throughput,
            "timed_chunks": len(window.raw),
            "raw_setups_s": raw_setups,
            "chunk_raw_ms": [1e3 * s for s in window.raw],
            "chunk_norm_ms": [1e3 * s for s in window.norm],
        },
        "simulated": simulated,
    }
    return record, recorder


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--record", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)
    record, recorder = run(
        WORKLOADS[args.workload],
        args.inputs,
        args.seed,
        args.seconds,
        bool(args.trace),
    )
    args.record.write_text(json.dumps(record, indent=1))
    if args.trace and args.spans is not None:
        args.spans.write_text(json.dumps(recorder.as_records()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
