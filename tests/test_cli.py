"""Tests for the command-line interface."""

import json
import re

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.traces.io import load_trace_csv, load_trace_npz


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["generate-trace", "quake", "-o", "x.csv"]
            )


class TestGenerateTrace:
    def test_writes_npz(self, tmp_path, capsys):
        path = tmp_path / "trace.npz"
        code = main(
            [
                "generate-trace",
                "heap",
                "-n",
                "2000",
                "-o",
                str(path),
                "--scale",
                "0.03125",
            ]
        )
        assert code == 0
        trace = load_trace_npz(path)
        assert len(trace) == 2000
        assert "wrote 2000 requests" in capsys.readouterr().out

    def test_writes_csv(self, tmp_path):
        path = tmp_path / "trace.csv"
        assert main(
            ["generate-trace", "stream", "-n", "500", "-o", str(path)]
        ) == 0
        assert len(load_trace_csv(path)) == 500

    def test_rejects_unknown_extension(self, tmp_path, capsys):
        path = tmp_path / "trace.parquet"
        code = main(
            ["generate-trace", "heap", "-n", "10", "-o", str(path)]
        )
        assert code == 2
        assert "must end in" in capsys.readouterr().err

    def test_seed_reproducible(self, tmp_path):
        a = tmp_path / "a.npz"
        b = tmp_path / "b.npz"
        for path in (a, b):
            main(
                [
                    "generate-trace",
                    "dlrm",
                    "-n",
                    "1000",
                    "-o",
                    str(path),
                    "--seed",
                    "7",
                ]
            )
        np.testing.assert_array_equal(
            load_trace_npz(a).addresses, load_trace_npz(b).addresses
        )


class TestRun:
    def test_run_prints_strategy_table(self, capsys):
        code = main(
            [
                "run",
                "stream",
                "--trace-length",
                "40000",
                "--components",
                "8",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "lru" in out
        assert "gmm-caching-eviction" in out
        assert "best:" in out


class TestSuite:
    def test_suite_two_workloads(self, capsys):
        code = main(
            [
                "suite",
                "--workloads",
                "stream",
                "heap",
                "--trace-length",
                "40000",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "reduction_points" in out
        assert "reduction_percent" in out


class TestServe:
    def test_serve_replays_and_reports(self, capsys):
        code = main(
            [
                "serve",
                "--workloads",
                "memtier",
                "stream",
                "--length",
                "30000",
                "--chunk",
                "2048",
                "--components",
                "6",
                "--no-refresh",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "shard:0" in out
        assert "tenant:0" in out
        assert "tenant:1" in out
        assert "miss rate" in out
        assert "0 engine swap(s)" in out

    def test_serve_with_drift_refreshes(self, capsys):
        code = main(
            [
                "serve",
                "--workloads",
                "memtier",
                "--length",
                "60000",
                "--chunk",
                "4096",
                "--components",
                "6",
                "--drift",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "engine swapped" in out
        assert "generation" in out

    def test_serve_refresh_async_swaps(self, capsys):
        code = main(
            [
                "serve",
                "--workloads",
                "memtier",
                "--length",
                "60000",
                "--chunk",
                "4096",
                "--components",
                "6",
                "--drift",
                "--refresh-async",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        total = re.search(
            r"total: ([\d,]+) measured accesses, .*?, (\d+) engine", out
        )
        assert total is not None
        # Every access past the 30% training prefix is accounted.
        assert total.group(1) == "42,000"
        assert int(total.group(2)) >= 1
        assert "refresh async:" in out

    def test_serve_rejects_pipeline_flag(self):
        with pytest.raises(SystemExit):
            main(["serve", "--length", "5000", "--pipeline", "throughput"])

    def test_serve_rejects_unknown_strategy(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "serve",
                    "--length",
                    "5000",
                    "--strategy",
                    "banana",
                ]
            )

    def test_serve_rejects_indivisible_shards(self, capsys):
        code = main(
            [
                "serve",
                "--workloads",
                "memtier",
                "--length",
                "20000",
                "--components",
                "6",
                "--shards",
                "7",
                "--no-refresh",
            ]
        )
        assert code == 2
        assert "divide" in capsys.readouterr().err


class TestHardwareReport:
    def test_report_contains_table2(self, capsys):
        assert main(["hardware-report"]) == 0
        out = capsys.readouterr().out
        assert "LSTM" in out
        assert "339" in out
        assert "15,4" in out  # the ~15,433x speedup


class TestTelemetryCapture:
    """--telemetry-out / --json plumbing plus the metrics and top
    subcommands that re-render a captured snapshot."""

    @pytest.fixture(scope="class")
    def snapshot_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("obs") / "serve.json"
        code = main(
            [
                "serve",
                "--workloads",
                "memtier",
                "--length",
                "16384",
                "--chunk",
                "2048",
                "--components",
                "6",
                "--no-refresh",
                "--telemetry-out",
                str(path),
            ]
        )
        assert code == 0
        return path

    def test_snapshot_file_is_canonical_json(self, snapshot_path):
        payload = json.loads(snapshot_path.read_text())
        assert payload["schema"] == "repro.telemetry/v1"
        assert len(payload["digest"]) == 64
        assert payload["extra"]["command"] == "serve"
        names = {f["name"] for f in payload["metrics"]}
        assert "serving_chunks_total" in names

    def test_serve_json_owns_stdout(self, capsys):
        code = main(
            [
                "serve",
                "--workloads",
                "memtier",
                "--length",
                "8192",
                "--chunk",
                "2048",
                "--components",
                "6",
                "--no-refresh",
                "--json",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        payload = json.loads(out)  # pure JSON, no tables mixed in
        assert payload["extra"]["command"] == "serve"
        assert "summary" in payload["extra"]

    def test_fabric_writes_prometheus_and_trace(self, tmp_path, capsys):
        prom = tmp_path / "fabric.prom"
        trace = tmp_path / "fabric.trace.json"
        for target in (prom, trace):
            code = main(
                [
                    "fabric",
                    "stream",
                    "--trace-length",
                    "20000",
                    "--devices",
                    "2",
                    "--telemetry-out",
                    str(target),
                ]
            )
            assert code == 0
        capsys.readouterr()
        text = prom.read_text()
        assert "# HELP fabric_chunks_total" in text
        assert "# TYPE fabric_chunks_total counter" in text
        events = json.loads(trace.read_text())["traceEvents"]
        assert any(e["ph"] == "X" for e in events)

    def test_metrics_renders_prometheus(self, snapshot_path, capsys):
        assert main(["metrics", str(snapshot_path)]) == 0
        out = capsys.readouterr().out
        assert "# TYPE serving_chunks_total counter" in out

    def test_metrics_renders_trace(self, snapshot_path, capsys):
        assert (
            main(
                ["metrics", str(snapshot_path), "--format", "trace"]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert "traceEvents" in payload

    def test_metrics_json_round_trips_digest(
        self, snapshot_path, capsys
    ):
        assert (
            main(["metrics", str(snapshot_path), "--format", "json"])
            == 0
        )
        rendered = json.loads(capsys.readouterr().out)
        original = json.loads(snapshot_path.read_text())
        assert rendered["digest"] == original["digest"]

    def test_metrics_rejects_non_snapshot(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"schema": "other/v9"}')
        assert main(["metrics", str(bogus)]) == 2
        assert "snapshot" in capsys.readouterr().err

    def test_top_renders_dashboard(self, snapshot_path, capsys):
        assert main(["top", str(snapshot_path)]) == 0
        out = capsys.readouterr().out
        assert "serving_chunks_total" in out
        assert "spans" in out

    def test_chaos_json_carries_scorecard(self, capsys):
        code = main(
            [
                "chaos",
                "--scenarios",
                "device_failure",
                "--length",
                "8192",
                "--chunk",
                "2048",
                "--devices",
                "2",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        rows = payload["extra"]["scenarios"]
        assert rows and rows[0]["scenario"] == "device_failure"
        assert "timeline_digest" in rows[0]

    def test_run_accepts_telemetry_out(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        code = main(
            [
                "run",
                "stream",
                "--trace-length",
                "40000",
                "--telemetry-out",
                str(path),
            ]
        )
        assert code == 0
        capsys.readouterr()
        payload = json.loads(path.read_text())
        assert payload["extra"]["command"] == "run"
        names = {f["name"] for f in payload["metrics"]}
        assert "pipeline_stage_calls_total" in names
