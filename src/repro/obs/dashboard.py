"""``repro top``: a one-shot text dashboard over a telemetry snapshot.

Renders the operator's glance view from a canonical snapshot dict
(live :meth:`repro.obs.Telemetry.snapshot` or one loaded from a
``--telemetry-out`` file): headline counters, the per-key rolling
table, stage shares, and the most recent failure/recovery
transitions.  Pure formatting -- no registry access, no state.
"""

from __future__ import annotations

_HEADLINE_ORDER = (
    "serving_chunks_total",
    "serving_accesses_total",
    "serving_hits_total",
    "serving_misses_total",
    "serving_engine_swaps_total",
    "fabric_chunks_total",
    "fabric_accesses_total",
    "fabric_failover_accesses_total",
    "executor_dispatch_rounds_total",
    "executor_retries_total",
    "chaos_faults_total",
    "tracer_spans_total",
)

_EVENT_TAIL = 8


def _families(snapshot: dict) -> dict[str, dict]:
    return {
        family["name"]: family
        for family in snapshot.get("metrics", [])
    }


def _family_total(family: dict) -> float:
    return sum(
        sample.get("value", 0.0) for sample in family["samples"]
    )


def _format_value(value: float) -> str:
    if value == int(value):
        return f"{int(value):,}"
    return f"{value:,.3f}"


def render_top(snapshot: dict) -> str:
    """The full dashboard text (trailing newline included)."""
    families = _families(snapshot)
    lines: list[str] = []
    digest = snapshot.get("digest", "")
    lines.append(
        f"telemetry {snapshot.get('schema', '?')}"
        + (f"  digest {digest[:12]}" if digest else "")
    )

    headline = [
        (name, _family_total(families[name]))
        for name in _HEADLINE_ORDER
        if name in families and families[name]["samples"]
    ]
    if headline:
        lines.append("")
        lines.append("== counters ==")
        width = max(len(name) for name, _ in headline)
        for name, value in headline:
            lines.append(f"  {name:<{width}}  {_format_value(value)}")

    rolling = families.get("rolling_miss_ratio")
    if rolling is not None and rolling["samples"]:
        lines.append("")
        lines.append("== rolling (scope/key) ==")
        latency = families.get("rolling_latency_us")
        share = families.get("rolling_traffic_share")
        latency_by = {
            tuple(sorted(s["labels"].items())): s["value"]
            for s in (latency["samples"] if latency else ())
        }
        share_by = {
            tuple(sorted(s["labels"].items())): s["value"]
            for s in (share["samples"] if share else ())
        }
        lines.append(
            f"  {'key':<24} {'miss':>8} {'lat_us':>10} {'share':>7}"
        )
        for sample in rolling["samples"]:
            labels = sample["labels"]
            label_key = tuple(sorted(labels.items()))
            key = f"{labels.get('scope', '?')}/{labels.get('key', '?')}"
            lines.append(
                f"  {key:<24}"
                f" {sample['value']:>8.4f}"
                f" {latency_by.get(label_key, 0.0):>10.3f}"
                f" {share_by.get(label_key, 0.0):>7.3f}"
            )

    stages = families.get("stage_wall_seconds")
    if stages is not None and stages["samples"]:
        lines.append("")
        lines.append("== stages ==")
        total = _family_total(stages) or 1.0
        calls = families.get("stage_calls_count")
        calls_by = {
            tuple(sorted(s["labels"].items())): s["value"]
            for s in (calls["samples"] if calls else ())
        }
        for sample in stages["samples"]:
            labels = sample["labels"]
            label_key = tuple(sorted(labels.items()))
            lines.append(
                f"  {labels.get('stage', '?'):<20}"
                f" {sample['value']:>10.4f}s"
                f" {sample['value'] / total:>6.1%}"
                f"  calls={int(calls_by.get(label_key, 0))}"
            )

    events = snapshot.get("events", [])
    if events:
        lines.append("")
        lines.append(f"== events (last {_EVENT_TAIL}) ==")
        for event in events[-_EVENT_TAIL:]:
            lines.append(
                f"  @{event.get('chunk_index', 0):>5}"
                f"  {event.get('kind', '?'):<18}"
                f" {event.get('key', '')}"
            )

    span_count = len(snapshot.get("spans", []))
    lines.append("")
    lines.append(f"{span_count} spans, {len(events)} events recorded")
    return "\n".join(lines) + "\n"
