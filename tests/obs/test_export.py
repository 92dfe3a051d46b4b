"""Exporter tests: snapshot digest, Prometheus text, Chrome trace.

Includes the chaos-bridge satellite: fault windows recorded on a
``RollingMetrics`` timeline during a real chaos scenario must render
as duration slices in the trace-event export, and one-chunk shard
stalls as instants.
"""

import json

import pytest

from repro.chaos.scenarios import (
    run_fabric_scenario,
    run_serving_scenario,
    scenario_chaos,
)
from repro.core.config import ServingConfig
from repro.obs import Telemetry
from repro.obs.export import (
    EVENT_PAIRS,
    SNAPSHOT_SCHEMA,
    build_snapshot,
    canonical_json,
    chrome_trace,
    digest_payload,
    prometheus_text,
    snapshot_json,
)


def _families(**values):
    return [
        {
            "name": name,
            "type": "counter",
            "help": "",
            "deterministic": deterministic,
            "samples": [{"labels": {}, "value": value}],
        }
        for name, (value, deterministic) in values.items()
    ]


class TestSnapshot:
    def test_schema_and_digest_fields(self):
        snapshot = build_snapshot([], [], [])
        assert snapshot["schema"] == SNAPSHOT_SCHEMA
        assert len(snapshot["digest"]) == 64

    def test_digest_ignores_non_deterministic_metrics(self):
        base = _families(
            chunks_total=(4.0, True), wall_seconds=(1.25, False)
        )
        moved = _families(
            chunks_total=(4.0, True), wall_seconds=(9.75, False)
        )
        assert (
            build_snapshot(base, [], [])["digest"]
            == build_snapshot(moved, [], [])["digest"]
        )

    def test_digest_covers_deterministic_metrics_spans_events(self):
        base = build_snapshot(
            _families(chunks_total=(4.0, True)), [], []
        )
        bumped = build_snapshot(
            _families(chunks_total=(5.0, True)), [], []
        )
        assert base["digest"] != bumped["digest"]
        spanned = build_snapshot(
            _families(chunks_total=(4.0, True)),
            [{"id": "a", "parent_id": None, "component": "c",
              "name": "n", "start": 1, "end": 2, "attrs": {}}],
            [],
        )
        assert spanned["digest"] != base["digest"]

    def test_snapshot_json_is_stable_and_parseable(self):
        snapshot = build_snapshot(
            _families(chunks_total=(4.0, True)), [], [],
            extra={"command": "run"},
        )
        text = snapshot_json(snapshot)
        assert text.endswith("\n")
        assert json.loads(text) == snapshot

    def test_canonical_json_digest_convention(self):
        payload = {"b": 1, "a": [1, 2]}
        assert canonical_json(payload) == '{"a":[1,2],"b":1}'
        assert len(digest_payload(payload)) == 64


class TestPrometheus:
    def test_counter_and_gauge_lines(self):
        text = prometheus_text(
            [
                {
                    "name": "serving_chunks_total",
                    "type": "counter",
                    "help": "Chunks processed.",
                    "deterministic": True,
                    "samples": [
                        {"labels": {"scope": "shard"}, "value": 3.0}
                    ],
                }
            ]
        )
        assert "# HELP serving_chunks_total Chunks processed." in text
        assert "# TYPE serving_chunks_total counter" in text
        assert 'serving_chunks_total{scope="shard"} 3' in text

    def test_histogram_buckets_are_cumulative(self):
        text = prometheus_text(
            [
                {
                    "name": "chunk_miss_ratio",
                    "type": "histogram",
                    "help": "",
                    "deterministic": True,
                    "samples": [
                        {
                            "labels": {},
                            "buckets": [0.5, 1.0],
                            "counts": [2, 1, 1],
                            "sum": 2.25,
                            "count": 4,
                        }
                    ],
                }
            ]
        )
        assert 'chunk_miss_ratio_bucket{le="0.5"} 2' in text
        assert 'chunk_miss_ratio_bucket{le="1"} 3' in text
        assert 'chunk_miss_ratio_bucket{le="+Inf"} 4' in text
        assert "chunk_miss_ratio_sum 2.25" in text
        assert "chunk_miss_ratio_count 4" in text

    def test_label_values_are_escaped(self):
        text = prometheus_text(
            [
                {
                    "name": "rolling_events_count",
                    "type": "gauge",
                    "help": "",
                    "deterministic": True,
                    "samples": [
                        {
                            "labels": {"key": 'sh"ard\n'},
                            "value": 1.0,
                        }
                    ],
                }
            ]
        )
        assert '\\"' in text
        assert "\\n" in text


def _event(kind, key, chunk, **info):
    return {
        "scope": "test",
        "key": key,
        "kind": kind,
        "chunk_index": chunk,
        "info": info,
    }


class TestChromeTrace:
    def test_spans_render_as_complete_events(self):
        trace = chrome_trace(
            [
                {
                    "id": "abc", "parent_id": None,
                    "component": "fabric", "name": "chunk",
                    "start": 3, "end": 7, "attrs": {"index": 0},
                }
            ],
            [],
        )
        slices = [
            e for e in trace["traceEvents"] if e["ph"] == "X"
        ]
        assert len(slices) == 1
        assert slices[0]["name"] == "fabric.chunk"
        assert slices[0]["ts"] == 3
        assert slices[0]["dur"] == 4

    @pytest.mark.parametrize(
        "down,up", sorted(EVENT_PAIRS.items())
    )
    def test_paired_events_become_windows(self, down, up):
        trace = chrome_trace(
            [],
            [
                _event(down, "device:1", 4, reason="injected"),
                _event(up, "device:1", 9),
            ],
        )
        windows = [
            e
            for e in trace["traceEvents"]
            if e["ph"] == "X" and e["tid"] == 1
        ]
        assert len(windows) == 1
        assert windows[0]["ts"] == 4
        assert windows[0]["dur"] == 5
        assert windows[0]["args"]["open"] == {"reason": "injected"}

    def test_unpaired_kinds_are_instants(self):
        trace = chrome_trace(
            [], [_event("refresh-failed", "engine", 6, build=2)]
        )
        instants = [
            e for e in trace["traceEvents"] if e["ph"] == "i"
        ]
        assert len(instants) == 1
        assert instants[0]["ts"] == 6

    def test_unclosed_window_surfaces_as_instant(self):
        trace = chrome_trace(
            [], [_event("device-down", "device:0", 3)]
        )
        names = [e["name"] for e in trace["traceEvents"]]
        assert "device-down:device:0 (unclosed)" in names

    def test_stalls_render_as_instants(self):
        """A shard stall lasts one chunk: each ``stall-degraded``
        event is its own instant, never one end of a window."""
        trace = chrome_trace(
            [],
            [
                _event("stall-degraded", "shard:0", 3),
                _event("stall-degraded", "shard:1", 7),
                _event("stall-degraded", "shard:0", 10),
            ],
        )
        faults = [
            (e["name"], e["ph"], e["ts"])
            for e in trace["traceEvents"]
            if e.get("cat") == "fault"
        ]
        assert faults == [
            ("stall-degraded:shard:0", "i", 3),
            ("stall-degraded:shard:1", "i", 7),
            ("stall-degraded:shard:0", "i", 10),
        ]

    def test_windows_pair_per_key(self):
        trace = chrome_trace(
            [],
            [
                _event("device-down", "device:0", 2),
                _event("device-down", "device:1", 3),
                _event("device-restored", "device:0", 5),
                _event("device-restored", "device:1", 7),
            ],
        )
        windows = {
            e["name"]: e["dur"]
            for e in trace["traceEvents"]
            if e["ph"] == "X"
        }
        assert windows["device-down:device:0"] == 3
        assert windows["device-down:device:1"] == 4


class TestChaosScenarioExport:
    """Satellite: chaos fault windows flow through the event bridge
    into the trace export of a real scenario run."""

    @pytest.fixture(scope="class")
    def scenario_snapshot(self, obs_workload):
        config, _, pages, writes = obs_workload
        telemetry = Telemetry(seed=0)
        out = run_fabric_scenario(
            scenario_chaos("device_failure", seed=0, horizon_chunks=6),
            pages,
            writes,
            config=config,
            chunk_requests=2_000,
            telemetry=telemetry,
        )
        return out, telemetry.snapshot()

    def test_fault_events_reach_the_snapshot(self, scenario_snapshot):
        out, snapshot = scenario_snapshot
        assert out["timeline"], "scenario must fire at least one fault"
        kinds = {event["kind"] for event in snapshot["events"]}
        assert "device-down" in kinds

    def test_fault_windows_render_as_slices(self, scenario_snapshot):
        _, snapshot = scenario_snapshot
        trace = chrome_trace(snapshot["spans"], snapshot["events"])
        windows = [
            e
            for e in trace["traceEvents"]
            if e["ph"] == "X"
            and e["tid"] == 1
            and e["name"].startswith("device-down")
        ]
        assert windows, "device outage must render as a slice"

    def test_chunk_spans_bracket_device_rounds(self, scenario_snapshot):
        _, snapshot = scenario_snapshot
        chunks = [
            s
            for s in snapshot["spans"]
            if s["component"] == "fabric" and s["name"] == "chunk"
        ]
        rounds = [
            s
            for s in snapshot["spans"]
            if s["name"] == "device_round"
        ]
        assert chunks and rounds
        chunk_ids = {s["id"] for s in chunks}
        assert all(r["parent_id"] in chunk_ids for r in rounds)


class TestStallScenarioExport:
    """Every stall a serving scenario observed reaches the trace as an
    instant at its chunk, on its shard."""

    @pytest.fixture(scope="class")
    def stall_run(self, obs_workload):
        config, engine, pages, writes = obs_workload
        telemetry = Telemetry(seed=0)
        out = run_serving_scenario(
            scenario_chaos("shard_stall", seed=1, horizon_chunks=5),
            engine,
            pages,
            writes,
            config=config,
            serving=ServingConfig(chunk_requests=2_000, n_shards=4),
            telemetry=telemetry,
        )
        return out, telemetry.snapshot()

    def test_stall_instants_match_the_timeline(self, stall_run):
        out, snapshot = stall_run
        stalls = sorted(
            (e["start"], f"shard:{e['target']}")
            for e in out["timeline"]
            if e["kind"] == "shard-stall"
        )
        assert stalls, "scenario must stall at least one shard"
        assert {e["duration"] for e in out["timeline"]} == {1}
        trace = chrome_trace(snapshot["spans"], snapshot["events"])
        instants = sorted(
            (e["ts"], e["name"].removeprefix("stall-degraded:"))
            for e in trace["traceEvents"]
            if e.get("cat") == "fault"
            and e["name"].startswith("stall-degraded")
        )
        assert instants == stalls
        assert all(
            e["ph"] == "i"
            for e in trace["traceEvents"]
            if e.get("cat") == "fault"
        )
