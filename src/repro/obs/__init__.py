"""Unified deterministic telemetry: metrics, tracing, exporters.

One :class:`Telemetry` object travels through a run -- the serving
loop, the CXL fabric, the staged pipeline, the chaos scenario runners
all accept ``telemetry=None`` and bind their instruments when given
one.  It bundles:

* a :class:`~repro.obs.registry.MetricsRegistry` of labeled
  counters/gauges/fixed-bucket histograms every subsystem registers
  into (push on chunk boundaries, pull via collectors at export);
* a :class:`~repro.obs.trace.Tracer` producing a logical-clock span
  tree (pipeline stages, fabric chunks and device rounds, serving
  chunks and shards, refresh builds) with seed-derived span IDs --
  bit-reproducible across runs;
* *event sources* -- callables yielding failure/recovery timelines
  (``RollingMetrics.events``) that the exporters render alongside the
  spans, so chaos fault windows appear as slices in the trace view.

Three export formats, all off one canonical snapshot
(:mod:`repro.obs.export`): Prometheus text exposition, canonical JSON
with a SHA-256 digest (the reproducibility artifact), and
Chrome/Perfetto trace-event JSON.

The disabled form is ``None``, never a no-op object -- exactly the
chaos-harness contract -- so ``telemetry=None`` call paths are
byte-identical to a build without this package.
"""

from __future__ import annotations

from repro.obs.export import (
    EVENT_PAIRS,
    SNAPSHOT_SCHEMA,
    build_snapshot,
    canonical_json,
    chrome_trace,
    chrome_trace_json,
    digest_payload,
    prometheus_text,
    snapshot_json,
)
from repro.obs.registry import (
    LATENCY_EDGES_US,
    RATIO_EDGES,
    SECONDS_EDGES,
    UNIT_SUFFIXES,
    MetricsRegistry,
    exponential_edges,
    validate_metric_name,
)
from repro.obs.trace import Span, Tracer, span_id
from repro.obs import bridge


class Telemetry:
    """The run-scoped bundle of registry + tracer + event sources.

    Constructing one arms telemetry; the disabled form is ``None``
    (module docstring).  ``seed`` roots the tracer's span-ID
    derivation; with every metric value and span timestamp on a
    logical clock, the exported snapshot digest is a pure function
    of (seed, workload, config).
    """

    def __init__(self, seed: int = 0) -> None:
        self.registry = MetricsRegistry()
        self.tracer = Tracer(seed=seed)
        self._event_sources = []
        self.registry.register_collector(self._collect_tracer)

    def _collect_tracer(self) -> None:
        self.registry.counter(
            "tracer_dropped_spans_total",
            help="Spans discarded at the max_spans cap.",
        ).set(self.tracer.dropped)
        self.registry.counter(
            "tracer_spans_total", help="Spans recorded."
        ).set(len(self.tracer))

    def add_event_source(self, source) -> None:
        """Register a callable returning canonical event dicts."""
        self._event_sources.append(source)

    def events(self) -> list[dict]:
        """All source timelines, concatenated in registration order."""
        out: list[dict] = []
        for source in self._event_sources:
            out.extend(source())
        return out

    # -- exports --------------------------------------------------------
    def snapshot(self, extra: dict | None = None) -> dict:
        """The canonical snapshot dict (collectors run first)."""
        return build_snapshot(
            self.registry.as_dicts(),
            self.tracer.as_dicts(),
            self.events(),
            extra=extra,
        )

    def snapshot_json(self, extra: dict | None = None) -> str:
        return snapshot_json(self.snapshot(extra=extra))

    def prometheus(self) -> str:
        return prometheus_text(self.registry.as_dicts())

    def chrome_json(self) -> str:
        return chrome_trace_json(self.tracer.as_dicts(), self.events())

    def write(self, path: str, extra: dict | None = None) -> str:
        """Write one export, format dispatched on the file suffix.

        ``*.prom`` -> Prometheus text; ``*.trace.json`` /
        ``*.perfetto.json`` -> Chrome trace-event JSON; anything else
        -> canonical JSON snapshot.  Returns the format written.
        """
        if path.endswith(".prom"):
            payload, kind = self.prometheus(), "prometheus"
        elif path.endswith((".trace.json", ".perfetto.json")):
            payload, kind = self.chrome_json(), "chrome-trace"
        else:
            payload, kind = self.snapshot_json(extra=extra), "snapshot"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(payload)
        return kind

    def __repr__(self) -> str:
        return (
            f"Telemetry(metrics={len(self.registry)},"
            f" spans={len(self.tracer)},"
            f" event_sources={len(self._event_sources)})"
        )


__all__ = [
    "EVENT_PAIRS",
    "LATENCY_EDGES_US",
    "RATIO_EDGES",
    "SECONDS_EDGES",
    "SNAPSHOT_SCHEMA",
    "UNIT_SUFFIXES",
    "MetricsRegistry",
    "Span",
    "Telemetry",
    "Tracer",
    "bridge",
    "build_snapshot",
    "canonical_json",
    "chrome_trace",
    "chrome_trace_json",
    "digest_payload",
    "exponential_edges",
    "prometheus_text",
    "snapshot_json",
    "span_id",
    "validate_metric_name",
]
