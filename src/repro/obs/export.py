"""Telemetry exporters: Prometheus text, canonical JSON, Chrome trace.

All three formats render from the same canonical snapshot structure
(:func:`build_snapshot`), so there is exactly one serialization path
to keep deterministic.  The snapshot digest follows the FaultPlan
convention (``repro.chaos.plan``): SHA-256 over minified sorted-key
JSON -- but restricted to the *deterministic* subset (metrics flagged
``deterministic``, all spans, all events, any embedded extra
payload), so wall-clock gauges like ``stage_wall_seconds`` never
perturb it.
"""

from __future__ import annotations

import hashlib
import json

SNAPSHOT_SCHEMA = "repro.telemetry/v1"

#: Event kinds that open/close a fault window (rendered as one
#: duration slice in the Chrome trace); all other kinds -- a shard
#: stall's one-chunk ``stall-degraded`` among them -- render as
#: instant events.
EVENT_PAIRS = {
    "device-down": "device-restored",
    "breaker-open": "breaker-close",
    "device-quarantined": "device-reinstated",
    "failslow-onset": "failslow-cleared",
}


def canonical_json(payload) -> str:
    """Minified, key-sorted JSON -- the digestible byte form."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def digest_payload(payload) -> str:
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def build_snapshot(
    metrics: list[dict],
    spans: list[dict],
    events: list[dict],
    extra: dict | None = None,
) -> dict:
    """The canonical snapshot dict with its reproducibility digest.

    ``metrics``/``spans``/``events`` are the already-canonical dict
    forms from :class:`~repro.obs.registry.MetricsRegistry`,
    :class:`~repro.obs.trace.Tracer`, and the component event
    sources; ``extra`` carries a command's primary payload (summary,
    fabric result, chaos scorecard) for ``--json`` output.
    """
    digest_src = {
        "schema": SNAPSHOT_SCHEMA,
        "metrics": [m for m in metrics if m.get("deterministic")],
        "spans": spans,
        "events": events,
    }
    if extra is not None:
        digest_src["extra"] = extra
    snapshot = {
        "schema": SNAPSHOT_SCHEMA,
        "digest": digest_payload(digest_src),
        "metrics": metrics,
        "spans": spans,
        "events": events,
    }
    if extra is not None:
        snapshot["extra"] = extra
    return snapshot


def snapshot_json(snapshot: dict) -> str:
    """Pretty canonical JSON (sorted keys, trailing newline)."""
    return json.dumps(snapshot, sort_keys=True, indent=2) + "\n"


# -- Prometheus text exposition ---------------------------------------


def _prom_labels(labels: dict, extra: dict | None = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    body = ",".join(
        f'{key}="{_prom_escape(str(value))}"'
        for key, value in merged.items()
    )
    return "{" + body + "}"


def _prom_escape(value: str) -> str:
    return (
        value.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _prom_number(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def prometheus_text(metrics: list[dict]) -> str:
    """Render the snapshot metrics section as Prometheus exposition."""
    lines: list[str] = []
    for family in metrics:
        name = family["name"]
        if family.get("help"):
            lines.append(f"# HELP {name} {family['help']}")
        lines.append(f"# TYPE {name} {family['type']}")
        for sample in family["samples"]:
            labels = sample["labels"]
            if family["type"] == "histogram":
                cumulative = 0
                for edge, count in zip(
                    sample["buckets"], sample["counts"], strict=False
                ):
                    cumulative += count
                    lines.append(
                        f"{name}_bucket"
                        f"{_prom_labels(labels, {'le': _prom_number(edge)})}"
                        f" {cumulative}"
                    )
                cumulative += sample["counts"][-1]
                lines.append(
                    f"{name}_bucket{_prom_labels(labels, {'le': '+Inf'})}"
                    f" {cumulative}"
                )
                lines.append(
                    f"{name}_sum{_prom_labels(labels)}"
                    f" {_prom_number(sample['sum'])}"
                )
                lines.append(
                    f"{name}_count{_prom_labels(labels)}"
                    f" {sample['count']}"
                )
            else:
                lines.append(
                    f"{name}{_prom_labels(labels)}"
                    f" {_prom_number(sample['value'])}"
                )
    return "\n".join(lines) + "\n"


# -- Chrome/Perfetto trace-event JSON ---------------------------------

_TID_SPANS = 0
_TID_FAULTS = 1


def chrome_trace(spans: list[dict], events: list[dict]) -> dict:
    """Trace-event JSON: spans on tid 0, fault windows on tid 1.

    Logical-clock ticks map directly to microsecond ``ts`` values --
    the absolute scale is meaningless but ordering and containment
    are exact.  Paired component events (:data:`EVENT_PAIRS`) close
    over their matching open event per (kind, key) so chaos fault
    windows render as duration slices alongside the stage spans.
    """
    trace_events: list[dict] = [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 0,
            "tid": _TID_SPANS,
            "args": {"name": "spans"},
        },
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 0,
            "tid": _TID_FAULTS,
            "args": {"name": "fault-windows"},
        },
    ]
    for span in spans:
        start = span["start"]
        end = span["end"] if span["end"] is not None else start + 1
        trace_events.append(
            {
                "name": f"{span['component']}.{span['name']}",
                "cat": span["component"],
                "ph": "X",
                "ts": start,
                "dur": max(1, end - start),
                "pid": 0,
                "tid": _TID_SPANS,
                "args": {
                    "id": span["id"],
                    "parent_id": span["parent_id"],
                    **span["attrs"],
                },
            }
        )
    close_to_open = {v: k for k, v in EVENT_PAIRS.items()}
    open_events: dict[tuple[str, str], dict] = {}
    for event in events:
        kind = event.get("kind", "")
        key = str(event.get("key", ""))
        clock = int(event.get("chunk_index", 0))
        if kind in EVENT_PAIRS:
            open_events[(kind, key)] = event
            continue
        if kind in close_to_open:
            opener = open_events.pop((close_to_open[kind], key), None)
            if opener is not None:
                start = int(opener.get("chunk_index", 0))
                trace_events.append(
                    {
                        "name": f"{close_to_open[kind]}:{key}",
                        "cat": "fault",
                        "ph": "X",
                        "ts": start,
                        "dur": max(1, clock - start),
                        "pid": 0,
                        "tid": _TID_FAULTS,
                        "args": {
                            "open": dict(opener.get("info", {})),
                            "close": dict(event.get("info", {})),
                        },
                    }
                )
                continue
        trace_events.append(
            {
                "name": f"{kind}:{key}",
                "cat": "fault",
                "ph": "i",
                "s": "t",
                "ts": clock,
                "pid": 0,
                "tid": _TID_FAULTS,
                "args": dict(event.get("info", {})),
            }
        )
    # Unclosed windows (run ended mid-fault) render as instants at
    # their opening clock so they are not silently dropped.
    for (kind, key), opener in open_events.items():
        trace_events.append(
            {
                "name": f"{kind}:{key} (unclosed)",
                "cat": "fault",
                "ph": "i",
                "s": "t",
                "ts": int(opener.get("chunk_index", 0)),
                "pid": 0,
                "tid": _TID_FAULTS,
                "args": dict(opener.get("info", {})),
            }
        )
    return {"traceEvents": trace_events}


def chrome_trace_json(spans: list[dict], events: list[dict]) -> str:
    return (
        json.dumps(chrome_trace(spans, events), sort_keys=True, indent=2)
        + "\n"
    )
