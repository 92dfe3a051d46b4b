"""Logical-clock span tracing with bit-reproducible span IDs.

Wall-clock timestamps differ on every run, so the tracer timestamps
spans with a **logical clock**: a monotonic tick incremented on every
span begin/end.  Because every traced event in this codebase already
happens at a deterministic point in the replay order (chunk index,
dispatch round, build index), the resulting span tree -- IDs, order,
nesting, durations in ticks -- is a pure function of (seed, workload,
config) and identical across repeated runs.

Span IDs are ``sha256(f"{seed}|{component}|{name}|{clock}")[:16]``,
so two runs at the same seed produce byte-identical trace exports
(the reproducibility acceptance gate), while different seeds never
collide on IDs.

Spans are opened and closed around lane-replay rounds and per-task
instants are recorded in lane order; every replay runs inline, so
the tracer is single-threaded by construction -- it is not
thread-safe and does not need to be.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager


def span_id(seed: int, component: str, name: str, clock: int) -> str:
    """Deterministic 16-hex-char span ID."""
    payload = f"{seed}|{component}|{name}|{clock}".encode()
    return hashlib.sha256(payload).hexdigest()[:16]


class Span:
    """One node of the span tree (``end`` is None while open).

    A span the tracer opens hashes its ID on first read -- at export,
    as a rule -- not when it opens: the hash is most of a span's cost
    on the replay path, and the ID it yields is the same either way.
    """

    def __init__(
        self,
        id: str | None,
        parent_id: "str | Span | None",
        component: str,
        name: str,
        start: int,
        end: int | None = None,
        attrs: dict | None = None,
        seed: int = 0,
    ) -> None:
        self._id = id
        self._parent = parent_id
        self._seed = seed
        self.component = component
        self.name = name
        self.start = start
        self.end = end
        self.attrs = {} if attrs is None else attrs

    @property
    def id(self) -> str:
        if self._id is None:
            self._id = span_id(
                self._seed, self.component, self.name, self.start
            )
        return self._id

    @property
    def parent_id(self) -> str | None:
        parent = self._parent
        return parent.id if isinstance(parent, Span) else parent

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "parent_id": self.parent_id,
            "component": self.component,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "attrs": dict(sorted(self.attrs.items())),
        }


class Tracer:
    """Seeded, capped, logical-clock span recorder.

    ``max_spans`` bounds memory on long runs; spans past the cap are
    counted in :attr:`dropped` (surfaced as
    ``tracer_dropped_spans_total``) rather than recorded, and the cap
    applies identically on every run so capped traces stay
    reproducible too.
    """

    def __init__(self, seed: int = 0, max_spans: int = 100_000) -> None:
        self.seed = int(seed)
        self.max_spans = int(max_spans)
        self.clock = 0
        self.dropped = 0
        self._spans: list[Span] = []
        self._stack: list[Span] = []

    def tick(self) -> int:
        """Advance and return the logical clock."""
        self.clock += 1
        return self.clock

    def begin(self, component: str, name: str, **attrs) -> Span | None:
        """Open a span as a child of the current innermost open span."""
        clock = self.tick()
        if len(self._spans) >= self.max_spans:
            self.dropped += 1
            return None
        span = Span(
            id=None,
            parent_id=self._stack[-1] if self._stack else None,
            component=component,
            name=name,
            start=clock,
            attrs=attrs,
            seed=self.seed,
        )
        self._spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span | None, **attrs) -> None:
        """Close ``span`` (no-op for spans dropped at the cap)."""
        clock = self.tick()
        if span is None:
            return
        span.end = clock
        span.attrs.update(attrs)
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:
            self._stack.remove(span)

    @contextmanager
    def span(self, component: str, name: str, **attrs):
        """``with tracer.span(...) as s:`` -- begin/end bracketed."""
        span = self.begin(component, name, **attrs)
        try:
            yield span
        finally:
            self.end(span)

    def instant(self, component: str, name: str, **attrs) -> Span | None:
        """A closed single-tick span (point event in the tree)."""
        span = self.begin(component, name, **attrs)
        self.end(span)
        return span

    def spans(self) -> list[Span]:
        return list(self._spans)

    def as_dicts(self) -> list[dict]:
        """Spans in creation (clock) order -- already canonical."""
        return [span.as_dict() for span in self._spans]

    def __len__(self) -> int:
        return len(self._spans)

    def __repr__(self) -> str:
        return (
            f"Tracer(seed={self.seed}, spans={len(self._spans)},"
            f" clock={self.clock}, dropped={self.dropped})"
        )
