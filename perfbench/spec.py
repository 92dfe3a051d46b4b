"""The benchmark's workloads and fixed run parameters (stdlib only)."""

from __future__ import annotations

from dataclasses import dataclass

#: Requests per ``IcgmmCacheService.ingest`` call (one chunk).
CHUNK_REQUESTS = 4096

#: Leading share of the stream the engine trains on; measurement
#: starts right after it, as in ``repro serve``.
TRAIN_FRACTION = 0.3

#: Fewest timed chunks (or replays) per run: p90 then has ten samples
#: beyond it.
MIN_CHUNKS = 100

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Independent streams per run, each generated from the seed and the
#: stream index.  Their timed chunks are pooled: one stream's refresh
#: history moves a serve run's figures by several percent.
STREAMS = 2

#: Environment variables that pin BLAS/OpenMP pools to one thread;
#: set to 1 before numpy loads in the workload process.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``phases`` is the number of hot-region placements of a serve
    stream: the regions relocate ``phases - 1`` times, at equal
    intervals.  ``suffix`` picks the trace file format: ``.csv`` is
    parsed in streaming mode, ``.npz`` is stored uncompressed and
    replayed memory-mapped.  Why each workload is in the benchmark is
    recorded in ``BENCHMARK.json``.
    """

    name: str
    kind: str
    tenants: tuple[str, ...]
    length: int
    phases: int
    suffix: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "serve-drift",
            "serve",
            ("heap", "hashmap"),
            150 * CHUNK_REQUESTS,
            8,
            ".csv",
        ),
        Workload(
            "serve-writes",
            "serve",
            ("heap", "hashmap"),
            150 * CHUNK_REQUESTS,
            1,
            ".npz",
        ),
        Workload(
            "fabric-fig6",
            "fabric",
            ("dlrm",),
            150_000,
            1,
            ".npz",
        ),
    )
}
