"""Trace file formats.

Two interchange formats are supported:

* **CSV** -- the human-readable format of the collection tool the paper
  uses (one ``op,address,time`` row per request, ``op`` in ``{R, W}``).
* **NPZ** -- compact binary for large generated traces.

Both formats have a *streaming* ingest path next to the materializing
loaders, sized for the ROADMAP's multi-GB fleet traces:

* :func:`iter_trace_csv` parses the CSV in bounded chunks through a
  vectorized splitter (the scalar ``csv``-module walk survives as the
  exact-fallback for quoted rows and as the parity reference), so peak
  memory is one chunk, not one trace.
* :func:`load_trace_npz` with ``mmap=True`` memory-maps the three
  column arrays straight out of an *uncompressed* archive
  (:func:`save_trace_npz` with ``compressed=False``): nothing is
  copied at open time and untouched spans never enter memory.
* :func:`stream_trace_chunks` is the dispatching front the CLI ingest
  paths (``repro serve --trace`` / ``repro fabric --trace``) consume.
"""

from __future__ import annotations

import csv
import zipfile
from itertools import islice
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.traces.record import MemoryTrace

_CSV_HEADER = ["op", "address", "time"]

#: Rows per parsed CSV chunk: bounds streaming peak memory at roughly
#: one chunk's columns while keeping the vectorized splitter's numpy
#: call overhead amortised.
DEFAULT_CSV_CHUNK = 65536

_NPZ_ARRAYS = ("addresses", "is_write", "times")


def save_trace_csv(trace: MemoryTrace, path: str | Path) -> None:
    """Write a trace as ``op,address,time`` CSV rows."""
    with open(Path(path), "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_CSV_HEADER)
        for address, is_write, time in zip(
            trace.addresses, trace.is_write, trace.times
        ):
            writer.writerow(
                ["W" if is_write else "R", int(address), int(time)]
            )


def _parse_csv_rows_scalar(
    lines: list[str], first_line: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reference row-at-a-time parse of newline-stripped data rows.

    The original ``csv``-module walk: the exact-semantics fallback for
    rows the vectorized splitter refuses (quoted fields) and the
    parity baseline the io tests diff the fast parser against.
    """
    addresses: list[int] = []
    writes: list[bool] = []
    times: list[int] = []
    for offset, row in enumerate(csv.reader(lines)):
        row_number = first_line + offset
        if len(row) != 3:
            raise ValueError(
                f"line {row_number}: expected 3 fields, got {len(row)}"
            )
        op, address, time = row
        if op not in ("R", "W"):
            raise ValueError(
                f"line {row_number}: unknown op {op!r}"
            )
        addresses.append(int(address))
        writes.append(op == "W")
        times.append(int(time))
    return (
        np.asarray(addresses, dtype=np.int64),
        np.asarray(writes, dtype=bool),
        np.asarray(times, dtype=np.int64),
    )


def _parse_csv_rows(
    lines: list[str], first_line: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized parse of one chunk of data rows.

    Replaces the per-row Python loop with whole-chunk kernels: the
    joined chunk text is scanned once at byte level (``np.frombuffer``
    plus ``bincount``) to validate the per-row field counts, split
    into cells with a single C-level ``str.split``, and converted to
    columns in bulk.  Error messages (and the row numbering behind
    them) are bit-for-bit those of the scalar reference; chunks the
    fast path cannot split exactly -- quoted fields, or number
    formats numpy's int parser refuses but Python's accepts -- fall
    back to the scalar ``csv`` walk wholesale.
    """
    text = "".join(lines)
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    if text.endswith("\n"):
        text = text[:-1]
    if '"' in text or "\r" in text:
        # Quoted fields need the csv dialect; a lone \r terminator
        # (not produced by the writer) splits differently there too.
        return _parse_csv_rows_scalar(
            [line.rstrip("\r\n") for line in lines], first_line
        )
    n = len(lines)
    raw = np.frombuffer(text.encode(), dtype=np.uint8)
    # Byte-level structure scan.  UTF-8 continuation bytes never
    # collide with the ASCII comma/newline values, so positions and
    # per-row counts computed on bytes are exact.
    newlines = np.flatnonzero(raw == 0x0A)
    starts = np.concatenate(([0], newlines + 1))
    ends = np.concatenate((newlines, [raw.size]))
    comma_pos = np.flatnonzero(raw == 0x2C)
    commas = np.bincount(
        np.searchsorted(newlines, comma_pos), minlength=n
    )
    bad = commas != 2
    if bad.any():
        at = int(bad.argmax())
        # csv.reader yields [] for a blank line, so its field count
        # is 0, not 1.
        fields = (
            0 if starts[at] == ends[at] else int(commas[at]) + 1
        )
        raise ValueError(
            f"line {first_line + at}: expected 3 fields, got {fields}"
        )
    first_comma = comma_pos[0::2]
    second_comma = comma_pos[1::2]
    op_byte = raw[starts]
    is_write = op_byte == 0x57  # "W"
    bad_op = (first_comma - starts != 1) | ~(
        is_write | (op_byte == 0x52)  # "R"
    )
    if bad_op.any():
        at = int(bad_op.argmax())
        op = text[starts[at] : first_comma[at]]
        raise ValueError(
            f"line {first_line + at}: unknown op {op!r}"
        )
    addresses = _parse_int_column(raw, first_comma + 1, second_comma)
    times = _parse_int_column(raw, second_comma + 1, ends)
    if addresses is None or times is None:
        # A field the digit kernel cannot parse (sign, whitespace,
        # >18 digits, empty): the reference parser either accepts it
        # (Python int() is more lenient) or raises Python's own
        # message.
        return _parse_csv_rows_scalar(text.split("\n"), first_line)
    return addresses, is_write, times


def _parse_int_column(
    raw: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> np.ndarray | None:
    """Parse one decimal column straight out of the chunk's bytes.

    Left-to-right multiply-accumulate over at most ``max(width)``
    vectorized steps -- no per-cell Python strings.  Returns ``None``
    for anything outside plain 1-18 digit fields (the caller falls
    back to the exact scalar parser for those).
    """
    width = ends - starts
    if width.size == 0:
        return np.empty(0, dtype=np.int64)
    max_width = int(width.max())
    if width.min() < 1 or max_width > 18:
        return None
    values = np.zeros(starts.shape[0], dtype=np.int64)
    for k in range(max_width):
        active = width > k
        digit = raw[starts[active] + k].astype(np.int64) - 0x30
        if (digit < 0).any() or (digit > 9).any():
            return None
        values[active] = values[active] * 10 + digit
    return values


def iter_trace_csv(
    path: str | Path, chunk_requests: int = DEFAULT_CSV_CHUNK
) -> Iterator[MemoryTrace]:
    """Stream a trace CSV as bounded :class:`MemoryTrace` chunks.

    Reads at most ``chunk_requests`` rows at a time through the
    vectorized parser, so a multi-GB trace is consumed at one chunk
    of peak memory.  Chunk columns are validated on construction;
    the cross-chunk time-monotonicity check is the one global
    invariant streaming forgoes (:func:`load_trace_csv`, which
    concatenates the chunks, still enforces it).

    Raises
    ------
    ValueError
        On a malformed header, wrong field count, or unknown op code
        -- same messages, same row numbering as the scalar reference.
    """
    if chunk_requests < 1:
        raise ValueError("chunk_requests must be >= 1")
    with open(Path(path), newline="") as handle:
        first = handle.readline()
        header = next(csv.reader([first]), None) if first else None
        if header != _CSV_HEADER:
            raise ValueError(
                f"bad trace CSV header {header!r}, expected {_CSV_HEADER}"
            )
        line_number = 2
        while True:
            lines = list(islice(handle, chunk_requests))
            if not lines:
                return
            addresses, writes, times = _parse_csv_rows(
                lines, line_number
            )
            line_number += len(lines)
            yield MemoryTrace(addresses, writes, times)


def load_trace_csv(path: str | Path) -> MemoryTrace:
    """Read a trace written by :func:`save_trace_csv`.

    Parses through the chunked vectorized reader and concatenates --
    about an order of magnitude faster than the historical per-row
    loop on large traces, with identical validation errors.

    Raises
    ------
    ValueError
        On a malformed header or an unknown op code.
    """
    chunks = list(iter_trace_csv(path))
    if not chunks:
        return MemoryTrace(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=bool)
        )
    if len(chunks) == 1:
        return chunks[0]
    return MemoryTrace(
        np.concatenate([chunk.addresses for chunk in chunks]),
        np.concatenate([chunk.is_write for chunk in chunks]),
        np.concatenate([chunk.times for chunk in chunks]),
    )


def save_trace_npz(
    trace: MemoryTrace, path: str | Path, compressed: bool = True
) -> None:
    """Write a trace as an ``.npz`` archive.

    ``compressed=False`` stores the members raw (``np.savez``), which
    is what :func:`load_trace_npz`'s memory-mapped mode requires --
    deflated members cannot be mapped.
    """
    save = np.savez_compressed if compressed else np.savez
    save(
        Path(path),
        addresses=trace.addresses,
        is_write=trace.is_write,
        times=trace.times,
    )


def save_trace(
    trace: MemoryTrace, path: str | Path, compressed: bool = True
) -> None:
    """Save a trace file, dispatching on its suffix.

    The write-side twin of :func:`load_trace`: ``.csv`` goes through
    the row writer, ``.npz`` through :func:`save_trace_npz` with the
    given ``compressed`` option.
    """
    path = Path(path)
    if path.suffix == ".csv":
        save_trace_csv(trace, path)
        return
    if path.suffix == ".npz":
        save_trace_npz(trace, path, compressed=compressed)
        return
    raise ValueError(
        f"unsupported trace format {path.suffix!r}"
        " (expected .csv or .npz)"
    )


def _npz_is_stored(path: Path) -> bool:
    """Whether every member of the archive is stored uncompressed."""
    with zipfile.ZipFile(path) as archive:
        return all(
            info.compress_type == zipfile.ZIP_STORED
            for info in archive.infolist()
        )


def _mmap_npz_member(
    path: Path, archive: zipfile.ZipFile, name: str
) -> np.ndarray:
    """Memory-map one stored ``.npy`` member of an open archive.

    ``np.load`` decompresses npz members through the zip layer even
    with ``mmap_mode`` set, so the zero-copy path is built by hand:
    read the member's ``.npy`` header for dtype/shape, compute the
    absolute payload offset from the zip local-file header, and map
    the payload in place.
    """
    info = archive.getinfo(name)
    if info.compress_type != zipfile.ZIP_STORED:
        raise ValueError(
            f"cannot memory-map {name!r}: archive member is"
            " compressed (write the trace with"
            " save_trace_npz(..., compressed=False))"
        )
    with archive.open(info) as member:
        version = np.lib.format.read_magic(member)
        if version == (1, 0):
            shape, fortran, dtype = (
                np.lib.format.read_array_header_1_0(member)
            )
        elif version == (2, 0):
            shape, fortran, dtype = (
                np.lib.format.read_array_header_2_0(member)
            )
        else:
            raise ValueError(
                f"unsupported .npy format version {version}"
                f" in {name!r}"
            )
        header_bytes = member.tell()
    if int(np.prod(shape)) == 0:
        return np.empty(shape, dtype=dtype)
    # The local file header's name/extra lengths can differ from the
    # central directory's, so the payload offset comes from the local
    # header itself.
    with open(path, "rb") as raw:
        raw.seek(info.header_offset)
        local = raw.read(30)
    if local[:4] != b"PK\x03\x04":
        raise ValueError(
            f"corrupt archive: bad local header for {name!r}"
        )
    name_len = int.from_bytes(local[26:28], "little")
    extra_len = int.from_bytes(local[28:30], "little")
    offset = (
        info.header_offset + 30 + name_len + extra_len + header_bytes
    )
    return np.memmap(
        path,
        dtype=dtype,
        mode="r",
        offset=offset,
        shape=shape,
        order="F" if fortran else "C",
    )


def load_trace_npz(
    path: str | Path, mmap: bool = False
) -> MemoryTrace:
    """Read a trace written by :func:`save_trace_npz`.

    With ``mmap=True`` the three columns are memory-mapped directly
    out of an *uncompressed* archive: open cost is a few header
    reads, no bytes are copied, and only the spans a consumer
    actually slices ever become resident -- the ingest path for
    traces larger than memory.  Mapped columns skip the O(N)
    re-validation scans (archives written by :func:`save_trace_npz`
    hold columns that were validated at trace construction); chunk
    slices taken off the mapped trace re-validate their spans on
    construction as usual.
    """
    path = Path(path)
    if mmap:
        with zipfile.ZipFile(path) as archive:
            members = set(archive.namelist())
            missing = {
                name
                for name in _NPZ_ARRAYS
                if f"{name}.npy" not in members
            }
            if missing:
                raise ValueError(
                    f"trace archive missing arrays: {sorted(missing)}"
                )
            columns = {
                name: _mmap_npz_member(path, archive, f"{name}.npy")
                for name in _NPZ_ARRAYS
            }
        return MemoryTrace(
            columns["addresses"],
            columns["is_write"],
            columns["times"],
            validate=False,
        )
    with np.load(path) as data:
        missing = set(_NPZ_ARRAYS) - set(data.files)
        if missing:
            raise ValueError(
                f"trace archive missing arrays: {sorted(missing)}"
            )
        return MemoryTrace(
            data["addresses"], data["is_write"], data["times"]
        )


def load_trace(path: str | Path, mmap: bool = True) -> MemoryTrace:
    """Load a trace file, dispatching on its suffix.

    ``.npz`` archives open memory-mapped when their members are
    stored uncompressed (and ``mmap`` is left on); compressed
    archives fall back to the materializing reader.  ``.csv`` goes
    through the chunked vectorized parser.
    """
    path = Path(path)
    if path.suffix == ".csv":
        return load_trace_csv(path)
    if path.suffix == ".npz":
        if mmap and _npz_is_stored(path):
            return load_trace_npz(path, mmap=True)
        return load_trace_npz(path)
    raise ValueError(
        f"unsupported trace format {path.suffix!r}"
        " (expected .csv or .npz)"
    )


def stream_trace_chunks(
    path: str | Path, chunk_requests: int = DEFAULT_CSV_CHUNK
) -> tuple[int, Iterator[MemoryTrace]]:
    """``(total_requests, chunk iterator)`` over a trace file.

    The streaming front the CLI ingest paths consume: the trace's
    length is known up front (npz: the mapped column shape; csv: one
    cheap line-count pass that holds no rows), and the iterator
    yields bounded :class:`MemoryTrace` chunks -- memory-mapped
    slices for stored npz archives, vectorized parses for csv -- so
    the full trace never materializes in the ingesting process.
    """
    if chunk_requests < 1:
        raise ValueError("chunk_requests must be >= 1")
    path = Path(path)
    if path.suffix == ".npz":
        trace = load_trace(path)

        def slices() -> Iterator[MemoryTrace]:
            for start in range(0, len(trace), chunk_requests):
                yield trace[start : start + chunk_requests]

        return len(trace), slices()
    if path.suffix == ".csv":
        with open(path, newline="") as handle:
            total = max(0, sum(1 for _ in handle) - 1)
        return total, iter_trace_csv(path, chunk_requests)
    raise ValueError(
        f"unsupported trace format {path.suffix!r}"
        " (expected .csv or .npz)"
    )


__all__ = [
    "DEFAULT_CSV_CHUNK",
    "iter_trace_csv",
    "load_trace",
    "load_trace_csv",
    "load_trace_npz",
    "save_trace",
    "save_trace_csv",
    "save_trace_npz",
    "stream_trace_chunks",
]
