"""Deterministic labeled metrics: counters, gauges, histograms.

The registry is the single sink every subsystem's quantitative state
lands in -- the serving loop's :class:`~repro.serving.metrics.
RollingMetrics`, the pipeline's :class:`~repro.core.pipeline.
StageProfiler`, the fabric's failover/pricing accumulators, the
executor's replay-round counters, and the refresher's build
outcomes.  Two registration styles coexist:

* **push** -- hot-path call sites hold an instrument handle and call
  ``inc``/``observe`` directly (a dict update per *chunk*, never per
  access, so the enabled-mode overhead stays inside the bench gate);
* **pull** -- a *collector* callable registered via
  :meth:`MetricsRegistry.register_collector` reads a component's
  existing accumulators and ``set``\\ s gauges/counters at collection
  time (zero hot-path cost).

Determinism contract: histogram bucket edges are fixed at
registration (:func:`exponential_edges` -- never derived from data),
and every instrument declares whether its *values* are deterministic
functions of the run (counters over logical events, ratios over
counters) or wall-clock measurements (stage seconds).  The canonical
snapshot digest (:mod:`repro.obs.export`) covers only the
deterministic subset, so one seed produces one digest regardless of
host speed.

Every metric name must be ``snake_case`` and end in a unit suffix
(:data:`UNIT_SUFFIXES`) -- enforced at registration and re-checked by
the naming lint test over a fully-wired run.
"""

from __future__ import annotations

import re
from typing import Callable, Iterable

#: Allowed terminal name components.  ``_total``/``_count`` mark event
#: counts, ``_ratio``/``_share``/``_percent`` dimensionless fractions,
#: and the rest physical units.
UNIT_SUFFIXES = (
    "total",
    "count",
    "ratio",
    "share",
    "percent",
    "us",
    "ns",
    "seconds",
    "bytes",
    "chunks",
    "info",
)

_NAME_RE = re.compile(r"^[a-z][a-z0-9]*(?:_[a-z0-9]+)*$")

#: Instrument kinds.
KIND_COUNTER = "counter"
KIND_GAUGE = "gauge"
KIND_HISTOGRAM = "histogram"


def validate_metric_name(name: str) -> None:
    """Raise :class:`ValueError` unless ``name`` follows convention.

    Convention: ``snake_case`` (lowercase alphanumerics joined by
    single underscores) ending in one of :data:`UNIT_SUFFIXES`.
    """
    if not _NAME_RE.match(name):
        raise ValueError(
            f"metric name {name!r} is not snake_case"
            " (lowercase alphanumerics joined by single underscores)"
        )
    suffix = name.rsplit("_", 1)[-1]
    if suffix not in UNIT_SUFFIXES:
        raise ValueError(
            f"metric name {name!r} must end in a unit suffix"
            f" (one of {UNIT_SUFFIXES})"
        )


def exponential_edges(
    start: float, factor: float, count: int
) -> tuple[float, ...]:
    """``count`` fixed exponential bucket edges from ``start``.

    Edges are ``start * factor**i`` -- a pure function of the three
    arguments, so the same registration always yields byte-identical
    buckets (the determinism the snapshot digest rests on).
    """
    if start <= 0.0:
        raise ValueError("start must be > 0")
    if factor <= 1.0:
        raise ValueError("factor must be > 1")
    if count < 1:
        raise ValueError("count must be >= 1")
    return tuple(start * factor**i for i in range(count))


#: Shared edge sets for the common value domains.
RATIO_EDGES = exponential_edges(1.0 / 1024.0, 2.0, 11)  # ..1.0
LATENCY_EDGES_US = exponential_edges(0.0625, 2.0, 16)  # ..2048us
SECONDS_EDGES = exponential_edges(1e-4, 4.0, 10)


class Counter:
    """Monotonic event count (one labeled child)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counter increments must be >= 0")
        self.value += amount

    def set(self, value: float) -> None:
        """Pull-style update from a monotonic source accumulator."""
        self.value = float(value)


class Gauge:
    """Point-in-time value (one labeled child)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Histogram:
    """Fixed-bucket distribution (one labeled child).

    ``counts[i]`` counts observations ``<= edges[i]``, with one
    overflow bucket at the end (the ``+Inf`` bucket of the text
    exposition); ``sum``/``count`` track the usual aggregates.
    """

    __slots__ = ("edges", "counts", "sum", "count")

    def __init__(self, edges: tuple[float, ...]) -> None:
        self.edges = edges
        self.counts = [0] * (len(edges) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        index = len(self.edges)
        for i, edge in enumerate(self.edges):
            if value <= edge:
                index = i
                break
        self.counts[index] += 1
        self.sum += value
        self.count += 1


_INSTRUMENTS = {
    KIND_COUNTER: Counter,
    KIND_GAUGE: Gauge,
    KIND_HISTOGRAM: Histogram,
}


class MetricFamily:
    """One named metric and its labeled children.

    Children are created on first :meth:`labels` call and keyed by
    the label *values* in the family's fixed label-name order; a
    label-less family proxies ``inc``/``set``/``observe`` to its
    single implicit child.
    """

    def __init__(
        self,
        name: str,
        kind: str,
        help: str = "",
        label_names: tuple[str, ...] = (),
        deterministic: bool = True,
        edges: tuple[float, ...] | None = None,
    ) -> None:
        validate_metric_name(name)
        if kind not in _INSTRUMENTS:
            raise ValueError(f"unknown metric kind {kind!r}")
        if kind == KIND_HISTOGRAM and not edges:
            raise ValueError("histogram families need bucket edges")
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = tuple(label_names)
        self.deterministic = bool(deterministic)
        self.edges = tuple(edges) if edges is not None else None
        self._children: dict[tuple[str, ...], object] = {}

    def labels(self, **labels: object):
        """The child instrument at these label values (created once)."""
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"{self.name}: expected labels {self.label_names},"
                f" got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[name]) for name in self.label_names)
        child = self._children.get(key)
        if child is None:
            child = (
                Histogram(self.edges)
                if self.kind == KIND_HISTOGRAM
                else _INSTRUMENTS[self.kind]()
            )
            self._children[key] = child
        return child

    # -- label-less convenience proxies --------------------------------
    def _default(self):
        if self.label_names:
            raise ValueError(
                f"{self.name} is labeled; use .labels(...) first"
            )
        return self.labels()

    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    def set(self, value: float) -> None:
        self._default().set(value)

    def observe(self, value: float) -> None:
        self._default().observe(value)

    # -- canonical serialization ---------------------------------------
    def samples(self) -> list[dict]:
        """Children as dicts, sorted by label values (canonical)."""
        out = []
        for key in sorted(self._children):
            child = self._children[key]
            sample: dict = {
                "labels": dict(
                    zip(self.label_names, key, strict=True)
                ),
            }
            if self.kind == KIND_HISTOGRAM:
                sample["buckets"] = list(child.edges)
                sample["counts"] = list(child.counts)
                sample["sum"] = child.sum
                sample["count"] = child.count
            else:
                sample["value"] = child.value
            out.append(sample)
        return out

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "type": self.kind,
            "help": self.help,
            "deterministic": self.deterministic,
            "samples": self.samples(),
        }


class MetricsRegistry:
    """Get-or-create registry of :class:`MetricFamily` instances.

    Re-registering an existing name is idempotent when the kind and
    label names match (so several components can share one family,
    e.g. the executor counters labeled by component) and an error
    otherwise -- a name can never silently change meaning.
    """

    def __init__(self) -> None:
        self._families: dict[str, MetricFamily] = {}
        self._collectors: list[Callable[[], None]] = []

    def _register(
        self,
        name: str,
        kind: str,
        help: str,
        labels: Iterable[str],
        deterministic: bool,
        edges: tuple[float, ...] | None = None,
    ) -> MetricFamily:
        labels = tuple(labels)
        existing = self._families.get(name)
        if existing is not None:
            if (
                existing.kind != kind
                or existing.label_names != labels
                or existing.edges != (edges if edges is None else tuple(edges))
            ):
                raise ValueError(
                    f"metric {name!r} already registered as"
                    f" {existing.kind} with labels"
                    f" {existing.label_names}"
                )
            return existing
        family = MetricFamily(
            name,
            kind,
            help=help,
            label_names=labels,
            deterministic=deterministic,
            edges=edges,
        )
        self._families[name] = family
        return family

    def counter(
        self,
        name: str,
        help: str = "",
        labels: Iterable[str] = (),
        deterministic: bool = True,
    ) -> MetricFamily:
        return self._register(
            name, KIND_COUNTER, help, labels, deterministic
        )

    def gauge(
        self,
        name: str,
        help: str = "",
        labels: Iterable[str] = (),
        deterministic: bool = True,
    ) -> MetricFamily:
        return self._register(
            name, KIND_GAUGE, help, labels, deterministic
        )

    def histogram(
        self,
        name: str,
        edges: tuple[float, ...],
        help: str = "",
        labels: Iterable[str] = (),
        deterministic: bool = True,
    ) -> MetricFamily:
        return self._register(
            name, KIND_HISTOGRAM, help, labels, deterministic,
            edges=tuple(edges),
        )

    def register_collector(self, collect: Callable[[], None]) -> None:
        """Add a pull-style collector run by :meth:`collect`.

        Collectors run in registration order (deterministic: a later
        registrant's ``set`` wins on a shared child), and must only
        ``set`` values -- repeated collection is idempotent.
        """
        self._collectors.append(collect)

    def collect(self) -> None:
        """Run every registered collector once."""
        for collect in self._collectors:
            collect()

    def families(self) -> list[MetricFamily]:
        """All families in canonical (name-sorted) order."""
        return [
            self._families[name] for name in sorted(self._families)
        ]

    def as_dicts(self, run_collectors: bool = True) -> list[dict]:
        """Canonical metrics section of the telemetry snapshot."""
        if run_collectors:
            self.collect()
        return [family.as_dict() for family in self.families()]

    def __contains__(self, name: str) -> bool:
        return name in self._families

    def __len__(self) -> int:
        return len(self._families)

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(families={len(self._families)},"
            f" collectors={len(self._collectors)})"
        )
