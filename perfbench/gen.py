"""Seeded trace generation for one workload (run in its own process).

Writes the :data:`~perfbench.spec.STREAMS` trace files the program
replays and a ``truth.json`` holding, per stream, its length and a
digest per chunk, which the workload run checks every ingested chunk
against::

    PYTHONPATH=src:. python3 -m perfbench.gen --workload serve-drift \
        --seed 1 --out .perfbench/tmp
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

from perfbench.checks import chunk_digest
from perfbench.spec import CHUNK_REQUESTS, STREAMS, WORKLOADS, Workload
from repro.core.config import SIMULATION_SCALE, ServingConfig
from repro.traces.io import save_trace_csv, save_trace_npz
from repro.traces.mixing import multi_tenant_trace, relocate
from repro.traces.record import MemoryTrace
from repro.traces.workloads import get_workload


def generate(workload: Workload, seed: int, stream: int) -> MemoryTrace:
    """One stream of the workload; the same seed gives the same trace.

    Serve streams put each tenant in its own address partition (as
    ``repro serve`` does) and, phase by phase, move every hot region
    by the ``--drift`` shift once more.
    """
    rng = np.random.default_rng([seed, stream])
    if workload.kind == "fabric":
        generator = get_workload(workload.tenants[0], scale=SIMULATION_SCALE)
        return generator.generate(workload.length, rng)
    partition = ServingConfig().partition_pages
    per_phase = workload.length // workload.phases
    addresses, writes = [], []
    for phase in range(workload.phases):
        n = (
            per_phase
            if phase < workload.phases - 1
            else workload.length - per_phase * phase
        )
        trace = multi_tenant_trace(
            [
                get_workload(name, scale=SIMULATION_SCALE)
                for name in workload.tenants
            ],
            [1.0] * len(workload.tenants),
            n,
            rng,
            partition_pages=partition,
        )
        if phase:
            trace = relocate(trace, base_page=phase * (partition // 8))
        addresses.append(trace.addresses)
        writes.append(trace.is_write)
    return MemoryTrace(np.concatenate(addresses), np.concatenate(writes))


def describe(trace: MemoryTrace) -> dict:
    """Length and digests the workload run checks its inputs against."""
    pages = trace.page_indices()
    return {
        "length": len(trace),
        "digest": chunk_digest(pages, trace.is_write),
        "digests": [
            chunk_digest(
                pages[start : start + CHUNK_REQUESTS],
                trace.is_write[start : start + CHUNK_REQUESTS],
            )
            for start in range(0, len(trace), CHUNK_REQUESTS)
        ],
    }


def write_inputs(workload: Workload, seed: int, out: Path) -> None:
    """Generate, save and describe every stream of the workload."""
    out.mkdir(parents=True, exist_ok=True)
    streams = []
    for stream in range(STREAMS):
        trace = generate(workload, seed, stream)
        path = out / f"trace-{stream}{workload.suffix}"
        if workload.suffix == ".csv":
            save_trace_csv(trace, path)
        else:
            save_trace_npz(trace, path, compressed=False)
        streams.append(describe(trace))
    (out / "truth.json").write_text(json.dumps({"streams": streams}))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    write_inputs(WORKLOADS[args.workload], args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
