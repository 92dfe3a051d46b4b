"""Outside-in layer trace: spans recorded around calls into the program.

The benchmark wraps the public functions of each layer from its own
files (see :mod:`perfbench.layers`); nothing inside the program is
instrumented.  Spans stay in memory until the run ends.

A span's *self time* is its duration minus the part of it that its
child spans cover.  A root span (one measured chunk, one fabric replay,
one set-up) has no parent; its self time is the time no named layer
accounts for, reported as ``unattributed``.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass

#: Request scoring, and the page-marginal grid that calls it.  A
#: ``score`` call made by ``page_scores`` is grid work, so its self
#: time is charged to the grid (:func:`layer_of`).
SCORE = "core.engine.score"
PAGE_SCORES = "core.engine.page_scores"
UNATTRIBUTED = "unattributed"


@dataclass
class Span:
    """One timed call: layer name, interval, parent and root indices.

    ``parent`` and ``root`` index the recorder's span list (``-1`` for
    a root's parent); ``chunk`` numbers the measured chunk or replay
    the span ran in; ``size`` is the layer's work count for the call
    (rows read or scored, pages, accesses replayed).
    """

    name: str
    start: float
    end: float
    parent: int
    root: int
    chunk: int
    size: int = 0


class SpanRecorder:
    """In-memory span store plus event counters (single-threaded)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.chunk = -1
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        """Open a span under the innermost open one; returns its index."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        root = self.spans[parent].root if parent >= 0 else index
        self.spans.append(
            Span(name, time.perf_counter(), 0.0, parent, root, self.chunk)
        )
        self._stack.append(index)
        return index

    def end(self, index: int, size: int = 0) -> None:
        """Close the innermost span, which must be ``index``."""
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {index} closed out of order")
        self._stack.pop()
        span = self.spans[index]
        span.end = time.perf_counter()
        span.size = int(size)

    @contextmanager
    def span(self, name: str):
        """Time a block as one span."""
        index = self.begin(name)
        try:
            yield index
        finally:
            self.end(index)

    def wrap(self, name: str, fn, size=None):
        """``fn`` timed as a ``name`` span; ``size(args, result)``
        gives the call's work count.  Calls made while no root span is
        open (warm-up, reference replays) are not recorded."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            index = self.begin(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.end(
                    index, size(args, result) if size is not None else 0
                )

        return traced

    def as_records(self) -> list[dict]:
        """Spans as plain dicts, for writing out when the run ends."""
        return [asdict(span) for span in self.spans]


def self_times(spans: list[Span]) -> list[float]:
    """Duration minus child coverage, per span.

    Children are clipped to the parent's interval and overlapping
    children are merged, so the result never goes negative.
    """
    children: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(index)
    out = []
    for index, span in enumerate(spans):
        intervals = sorted(
            (max(spans[c].start, span.start), min(spans[c].end, span.end))
            for c in children.get(index, ())
        )
        covered = 0.0
        reach = span.start
        for lo, hi in intervals:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def layer_of(spans: list[Span], index: int) -> str:
    """Layer a span's self time is charged to."""
    span = spans[index]
    if span.parent < 0:
        return UNATTRIBUTED
    if span.name == SCORE and spans[span.parent].name == PAGE_SCORES:
        return PAGE_SCORES
    return span.name


def layer_summary(spans: list[Span]) -> dict:
    """Per-phase totals and per-(layer, phase) calls, self time, size.

    The phase of a span is the name of its root (for instance
    ``"setup"`` or ``"chunk"``).  Calls and sizes of a ``score`` span
    inside ``page_scores`` are grid work and are not counted as
    request-scoring calls.
    """
    own = self_times(spans)
    totals: Counter = Counter()
    calls: Counter = Counter()
    seconds: Counter = Counter()
    sizes: Counter = Counter()
    for index, span in enumerate(spans):
        phase = spans[span.root].name
        layer = layer_of(spans, index)
        seconds[layer, phase] += own[index]
        if span.parent < 0:
            totals[phase] += span.end - span.start
        if layer == span.name or span.parent < 0:
            calls[layer, phase] += 1
            sizes[layer, phase] += span.size
    return {
        "totals": dict(totals),
        "calls": dict(calls),
        "self_s": dict(seconds),
        "size": dict(sizes),
    }
