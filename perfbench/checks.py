"""Output checks on what the program returned, and the sample-count rule.

Each check returns a list of problems (empty when the output is right)
so the caller can charge the accesses of a failing chunk or replay as
failed and keep going.
"""

from __future__ import annotations

import math
import zlib

import numpy as np

from repro.cache.stats import CacheStats


def chunk_digest(pages: np.ndarray, is_write: np.ndarray) -> int:
    """Order-sensitive CRC32 of a chunk's page and write columns."""
    pages = np.ascontiguousarray(pages, dtype="<i8")
    writes = np.ascontiguousarray(is_write, dtype=bool)
    return zlib.crc32(writes.tobytes(), zlib.crc32(pages.tobytes()))


def tail_percentile(values, q: int) -> float:
    """``q``-th percentile, refused unless ten samples lie beyond it."""
    n = len(values)
    if n * (100 - q) < 1000:
        raise ValueError(
            f"p{q} of {n} samples has fewer than ten samples beyond it"
        )
    return float(np.percentile(values, q))


def serve_chunk_problems(
    index: int,
    pages: np.ndarray,
    is_write: np.ndarray,
    reports: list,
    digest: int,
    chunk: int,
    measure_from: int,
) -> list[str]:
    """One ``ingest`` call: the right data, in order, fully counted."""
    problems = []
    if chunk_digest(pages, is_write) != digest:
        problems.append(f"chunk {index}: accesses lost or reordered")
    if len(reports) != 1:
        return problems + [f"chunk {index}: {len(reports)} reports"]
    report = reports[0]
    start = index * chunk
    measured = max(0, start + len(pages) - max(start, measure_from))
    if report.chunk_index != index:
        problems.append(
            f"chunk {index}: reported as chunk {report.chunk_index}"
        )
    if report.accesses != len(pages):
        problems.append(
            f"chunk {index}: {report.accesses} of {len(pages)} accesses"
        )
    if report.stats.accesses != measured:
        problems.append(
            f"chunk {index}: {report.stats.accesses} measured accesses,"
            f" expected {measured}"
        )
    return problems


def _merged(rows: list[CacheStats]) -> CacheStats:
    total = CacheStats()
    for row in rows:
        total = total.merge(row)
    return total


def serve_pass_problems(
    length: int,
    chunk: int,
    chunks: int,
    cursor: int,
    measure_from: int,
    totals: CacheStats,
    shards: list[CacheStats],
    tenants: list[CacheStats],
) -> list[str]:
    """A whole replay: every chunk ingested, rows summing to totals."""
    problems = []
    if chunks != math.ceil(length / chunk):
        problems.append(
            f"{chunks} chunks for {length} accesses of chunk size {chunk}"
        )
    if cursor != length:
        problems.append(f"service cursor at {cursor}, stream has {length}")
    if totals.hits + totals.misses != length - measure_from:
        problems.append(
            f"hits + misses = {totals.hits + totals.misses},"
            f" measured accesses = {length - measure_from}"
        )
    for name, rows in (("shard", shards), ("tenant", tenants)):
        if _merged(rows) != totals:
            problems.append(f"{name} rows do not sum to the totals")
    return problems


def fabric_replay_problems(
    device_accesses: list[int], expected: list[int]
) -> list[str]:
    """One fleet replay: per-device counts match the placed stream."""
    return [
        f"device {device}: {got} measured accesses, expected {want}"
        for device, (got, want) in enumerate(
            zip(device_accesses, expected, strict=True)
        )
        if got != want
    ]
