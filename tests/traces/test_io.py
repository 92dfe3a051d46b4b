"""Tests for trace file I/O."""

import numpy as np
import pytest

from repro.traces.io import (
    _parse_csv_rows_scalar,
    iter_trace_csv,
    load_trace,
    load_trace_csv,
    load_trace_npz,
    save_trace,
    save_trace_csv,
    save_trace_npz,
    stream_trace_chunks,
)
from repro.traces.record import MemoryTrace


def _trace():
    return MemoryTrace(
        np.array([0, 4096, 123456]),
        np.array([False, True, False]),
        np.array([0, 5, 9]),
    )


class TestCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.csv"
        save_trace_csv(_trace(), path)
        loaded = load_trace_csv(path)
        np.testing.assert_array_equal(
            loaded.addresses, _trace().addresses
        )
        np.testing.assert_array_equal(loaded.is_write, _trace().is_write)
        np.testing.assert_array_equal(loaded.times, _trace().times)

    def test_header_written(self, tmp_path):
        path = tmp_path / "trace.csv"
        save_trace_csv(_trace(), path)
        first_line = path.read_text().splitlines()[0]
        assert first_line == "op,address,time"

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y,z\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            load_trace_csv(path)

    def test_rejects_unknown_op(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("op,address,time\nX,0,0\n")
        with pytest.raises(ValueError, match="unknown op"):
            load_trace_csv(path)

    def test_rejects_wrong_field_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("op,address,time\nR,0\n")
        with pytest.raises(ValueError, match="3 fields"):
            load_trace_csv(path)

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.csv"
        empty = MemoryTrace(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=bool)
        )
        save_trace_csv(empty, path)
        assert len(load_trace_csv(path)) == 0


class TestNpz:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.npz"
        save_trace_npz(_trace(), path)
        loaded = load_trace_npz(path)
        np.testing.assert_array_equal(
            loaded.addresses, _trace().addresses
        )
        np.testing.assert_array_equal(loaded.is_write, _trace().is_write)
        np.testing.assert_array_equal(loaded.times, _trace().times)

    def test_rejects_missing_arrays(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, addresses=np.array([1]))
        with pytest.raises(ValueError, match="missing"):
            load_trace_npz(path)

    def test_large_trace_round_trip(self, tmp_path, rng):
        n = 50_000
        trace = MemoryTrace(
            rng.integers(0, 2**40, size=n),
            rng.random(n) < 0.3,
        )
        path = tmp_path / "large.npz"
        save_trace_npz(trace, path)
        loaded = load_trace_npz(path)
        np.testing.assert_array_equal(loaded.addresses, trace.addresses)


def _random_trace(rng, n):
    return MemoryTrace(
        rng.integers(0, 2**40, size=n),
        rng.random(n) < 0.3,
        np.sort(rng.integers(0, 10 * n, size=n)),
    )


def _is_mapped(array):
    base = array
    while base is not None:
        if isinstance(base, np.memmap):
            return True
        base = getattr(base, "base", None)
    return False


class TestVectorizedCsvParity:
    """The fast byte-level parser against the scalar csv reference."""

    def test_matches_scalar_on_random_trace(self, tmp_path, rng):
        trace = _random_trace(rng, 5_000)
        path = tmp_path / "trace.csv"
        save_trace_csv(trace, path)
        with open(path, newline="") as handle:
            handle.readline()
            lines = [line.rstrip("\r\n") for line in handle]
        addresses, writes, times = _parse_csv_rows_scalar(lines, 2)
        loaded = load_trace_csv(path)
        np.testing.assert_array_equal(loaded.addresses, addresses)
        np.testing.assert_array_equal(loaded.is_write, writes)
        np.testing.assert_array_equal(loaded.times, times)

    def test_blank_line_reports_zero_fields(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("op,address,time\nR,0,0\n\nR,1,1\n")
        with pytest.raises(
            ValueError, match=r"line 3: expected 3 fields, got 0"
        ):
            load_trace_csv(path)

    def test_extra_field_reports_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("op,address,time\nR,0,0,7\n")
        with pytest.raises(
            ValueError, match=r"line 2: expected 3 fields, got 4"
        ):
            load_trace_csv(path)

    def test_empty_op_is_unknown(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("op,address,time\n,5,7\n")
        with pytest.raises(
            ValueError, match=r"line 2: unknown op ''"
        ):
            load_trace_csv(path)

    def test_multichar_op_is_unknown(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("op,address,time\nRW,5,7\n")
        with pytest.raises(
            ValueError, match=r"line 2: unknown op 'RW'"
        ):
            load_trace_csv(path)

    def test_bad_int_uses_python_message(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("op,address,time\nR,x,1\n")
        with pytest.raises(
            ValueError, match=r"invalid literal for int"
        ):
            load_trace_csv(path)

    def test_quoted_fields_fall_back_to_csv_dialect(self, tmp_path):
        path = tmp_path / "quoted.csv"
        path.write_text('op,address,time\n"R",5,7\nW,1,8\n')
        loaded = load_trace_csv(path)
        assert list(loaded.addresses) == [5, 1]
        assert list(loaded.is_write) == [False, True]
        assert list(loaded.times) == [7, 8]

    def test_python_int_formats_fall_back(self, tmp_path):
        path = tmp_path / "lenient.csv"
        path.write_text("op,address,time\nR,+5,0\nW, 7,1\n")
        loaded = load_trace_csv(path)
        assert list(loaded.addresses) == [5, 7]

    def test_crlf_line_endings(self, tmp_path):
        path = tmp_path / "crlf.csv"
        with open(path, "w", newline="") as handle:
            handle.write("op,address,time\r\nR,5,7\r\nW,1,8\r\n")
        loaded = load_trace_csv(path)
        assert list(loaded.addresses) == [5, 1]
        assert list(loaded.times) == [7, 8]

    def test_empty_file_rejected_like_legacy(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="header None"):
            load_trace_csv(path)


class TestIterTraceCsv:
    def test_chunks_concatenate_to_full_load(self, tmp_path, rng):
        trace = _random_trace(rng, 3_000)
        path = tmp_path / "trace.csv"
        save_trace_csv(trace, path)
        chunks = list(iter_trace_csv(path, chunk_requests=257))
        assert all(len(c) <= 257 for c in chunks)
        np.testing.assert_array_equal(
            np.concatenate([c.addresses for c in chunks]),
            trace.addresses,
        )
        np.testing.assert_array_equal(
            np.concatenate([c.is_write for c in chunks]),
            trace.is_write,
        )
        np.testing.assert_array_equal(
            np.concatenate([c.times for c in chunks]),
            trace.times,
        )

    def test_error_line_numbers_cross_chunks(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = [f"R,{i},{i}" for i in range(100)] + ["Z,0,0"]
        path.write_text("op,address,time\n" + "\n".join(rows) + "\n")
        with pytest.raises(
            ValueError, match=r"line 102: unknown op 'Z'"
        ):
            list(iter_trace_csv(path, chunk_requests=7))

    def test_rejects_nonpositive_chunk(self, tmp_path):
        with pytest.raises(ValueError, match="chunk_requests"):
            next(iter_trace_csv(tmp_path / "x.csv", chunk_requests=0))


class TestMmapNpz:
    def test_mapped_load_matches_eager(self, tmp_path, rng):
        trace = _random_trace(rng, 4_000)
        path = tmp_path / "trace.npz"
        save_trace_npz(trace, path, compressed=False)
        mapped = load_trace_npz(path, mmap=True)
        assert _is_mapped(mapped._addresses)
        assert _is_mapped(mapped._is_write)
        assert _is_mapped(mapped._times)
        np.testing.assert_array_equal(
            np.asarray(mapped.addresses), trace.addresses
        )
        np.testing.assert_array_equal(
            np.asarray(mapped.is_write), trace.is_write
        )
        np.testing.assert_array_equal(
            np.asarray(mapped.times), trace.times
        )

    def test_mapped_slices_validate_and_match(self, tmp_path, rng):
        trace = _random_trace(rng, 4_000)
        path = tmp_path / "trace.npz"
        save_trace_npz(trace, path, compressed=False)
        mapped = load_trace_npz(path, mmap=True)
        window = mapped[1_000:1_500]
        np.testing.assert_array_equal(
            window.addresses, trace.addresses[1_000:1_500]
        )
        np.testing.assert_array_equal(
            window.page_indices(),
            trace.page_indices()[1_000:1_500],
        )

    def test_mapped_columns_are_read_only(self, tmp_path, rng):
        trace = _random_trace(rng, 100)
        path = tmp_path / "trace.npz"
        save_trace_npz(trace, path, compressed=False)
        mapped = load_trace_npz(path, mmap=True)
        with pytest.raises(ValueError):
            mapped.addresses[0] = 1

    def test_compressed_archive_refuses_mmap(self, tmp_path, rng):
        trace = _random_trace(rng, 100)
        path = tmp_path / "trace.npz"
        save_trace_npz(trace, path, compressed=True)
        with pytest.raises(ValueError, match="memory-map"):
            load_trace_npz(path, mmap=True)

    def test_mmap_rejects_missing_arrays(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, addresses=np.array([1]))
        with pytest.raises(ValueError, match="missing"):
            load_trace_npz(path, mmap=True)

    def test_empty_trace_maps(self, tmp_path):
        empty = MemoryTrace(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=bool)
        )
        path = tmp_path / "empty.npz"
        save_trace_npz(empty, path, compressed=False)
        assert len(load_trace_npz(path, mmap=True)) == 0


class TestLoadTraceDispatch:
    def test_csv_suffix(self, tmp_path, rng):
        trace = _random_trace(rng, 500)
        path = tmp_path / "t.csv"
        save_trace_csv(trace, path)
        np.testing.assert_array_equal(
            load_trace(path).addresses, trace.addresses
        )

    def test_stored_npz_maps(self, tmp_path, rng):
        trace = _random_trace(rng, 500)
        path = tmp_path / "t.npz"
        save_trace_npz(trace, path, compressed=False)
        assert _is_mapped(load_trace(path)._addresses)

    def test_compressed_npz_falls_back_to_eager(self, tmp_path, rng):
        trace = _random_trace(rng, 500)
        path = tmp_path / "t.npz"
        save_trace_npz(trace, path, compressed=True)
        loaded = load_trace(path)
        assert not _is_mapped(loaded._addresses)
        np.testing.assert_array_equal(
            loaded.addresses, trace.addresses
        )

    def test_unknown_suffix_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unsupported"):
            load_trace(tmp_path / "t.bin")


class TestStreamTraceChunks:
    @pytest.mark.parametrize("suffix", ["csv", "npz"])
    def test_total_and_chunks(self, tmp_path, rng, suffix):
        trace = _random_trace(rng, 2_000)
        path = tmp_path / f"t.{suffix}"
        if suffix == "csv":
            save_trace_csv(trace, path)
        else:
            save_trace_npz(trace, path, compressed=False)
        total, chunks = stream_trace_chunks(path, chunk_requests=333)
        assert total == 2_000
        chunks = list(chunks)
        assert all(len(c) <= 333 for c in chunks)
        np.testing.assert_array_equal(
            np.concatenate([c.addresses for c in chunks]),
            trace.addresses,
        )

    def test_unknown_suffix_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unsupported"):
            stream_trace_chunks(tmp_path / "t.bin")


def _npz_is_stored(path):
    import zipfile

    with zipfile.ZipFile(path) as archive:
        return all(
            info.compress_type == zipfile.ZIP_STORED
            for info in archive.infolist()
        )


def _assert_traces_equal(a, b):
    np.testing.assert_array_equal(a.addresses, b.addresses)
    np.testing.assert_array_equal(a.is_write, b.is_write)
    np.testing.assert_array_equal(a.times, b.times)


class TestSaveTraceDispatch:
    def test_csv_suffix(self, tmp_path):
        path = tmp_path / "trace.csv"
        save_trace(_trace(), path)
        _assert_traces_equal(load_trace_csv(path), _trace())

    def test_npz_suffix(self, tmp_path):
        path = tmp_path / "trace.npz"
        save_trace(_trace(), path)
        _assert_traces_equal(load_trace_npz(path), _trace())

    def test_uncompressed_npz_writes_stored_archive(self, tmp_path, rng):
        # What perfbench and `generate-trace --uncompressed` write: an
        # archive the zero-copy reader can map.
        trace = _random_trace(rng, 2_000)
        path = tmp_path / "trace.npz"
        save_trace(trace, path, compressed=False)
        assert _npz_is_stored(path)
        _assert_traces_equal(load_trace_npz(path, mmap=True), trace)

    def test_unknown_suffix_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unsupported trace format"):
            save_trace(_trace(), tmp_path / "trace.bin")
