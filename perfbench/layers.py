"""The program's layers as the benchmark times them, from the outside.

:func:`traced` swaps each layer's public functions for span-recording
wrappers (class attributes, and the module attribute where
``repro.serving.service`` imported ``stats_from_outcomes``) and puts
the originals back on exit.  :func:`layer_metrics` turns the spans into
the per-layer figures named in ``BENCHMARK.json``.
"""

from __future__ import annotations

from contextlib import contextmanager

import repro.serving.service as service_module
from perfbench.spans import UNATTRIBUTED, SpanRecorder, layer_summary
from repro.core.engine import GmmPolicyEngine
from repro.core.parallel import ParallelExecutor
from repro.core.pipeline import PreparedWorkload, StagedPipeline
from repro.cxl.fabric import CxlFabric
from repro.serving.drift import DriftDetector
from repro.serving.metrics import RollingMetrics
from repro.serving.refresh import ModelRefresher
from repro.serving.sharding import ShardedCachePlanes

#: Read by the benchmark itself around ``next()`` on the chunk stream.
TRACES_IO = "traces.io"

#: Root span names: one per set-up, one per measured chunk or replay.
SETUP, CHUNK = "setup", "chunk"


def _rows(args, result) -> int:
    return len(args[1])


def _replayed(args, result) -> int:
    return sum(len(task.pages) for task in args[1])


#: (layer, owner, attribute, work count of one call)
TARGETS = (
    ("core.pipeline.chunk_features", StagedPipeline, "chunk_features", None),
    ("core.engine.score", GmmPolicyEngine, "score", _rows),
    ("core.engine.page_scores", GmmPolicyEngine, "page_scores", _rows),
    ("core.engine.train", GmmPolicyEngine, "train", _rows),
    ("serving.sharding", ShardedCachePlanes, "route", None),
    ("serving.sharding", ShardedCachePlanes, "partition", None),
    ("core.parallel.replay", ParallelExecutor, "replay", _replayed),
    ("cache.stats", service_module, "stats_from_outcomes", None),
    ("serving.metrics", RollingMetrics, "record", None),
    ("serving.drift", DriftDetector, "observe", lambda a, r: r.drifted),
    ("serving.refresh", ModelRefresher, "ingest", None),
    ("serving.refresh", ModelRefresher, "build", lambda a, r: 1),
    ("cxl.fabric", CxlFabric, "bind", None),
    ("cxl.fabric", CxlFabric, "place", None),
    ("cxl.fabric", CxlFabric, "results", None),
    (
        "core.pipeline.page_score_map",
        PreparedWorkload,
        "page_score_map",
        None,
    ),
)

#: Every layer reported, in display order.
LAYERS = (TRACES_IO,) + tuple(dict.fromkeys(t[0] for t in TARGETS)) + (
    UNATTRIBUTED,
)


@contextmanager
def traced(recorder: SpanRecorder):
    """Record spans around every layer call made inside the block."""
    saved = []
    try:
        for layer, owner, attribute, size in TARGETS:
            original = (
                owner.__dict__[attribute]
                if isinstance(owner, type)
                else getattr(owner, attribute)
            )
            if isinstance(original, classmethod):
                wrapper = classmethod(
                    recorder.wrap(layer, original.__func__, size)
                )
            else:
                wrapper = recorder.wrap(layer, original, size)
            setattr(owner, attribute, wrapper)
            saved.append((owner, attribute, original))
        yield recorder
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


def layer_metrics(
    recorder: SpanRecorder, unique_pages: int, swaps: int
) -> dict[str, tuple[float, str]]:
    """Per-layer ``name -> (value, unit)`` from a traced run.

    A layer's share is of the phase it ran in: train (and, on the
    fabric, scoring and the page grid) runs in set-up, the rest in the
    measured chunks.  ``unattributed`` is measured-chunk time no named
    layer covers.  ``unique_pages`` is the distinct pages per measured
    chunk, summed; with the pages the grid scored it gives the
    page-score memo's hit rate.
    """
    summary = layer_summary(recorder.spans)
    totals = summary["totals"]
    metrics: dict[str, tuple[float, str]] = {}

    def summed(kind: str, layer: str, phases=(SETUP, CHUNK)) -> float:
        return sum(summary[kind].get((layer, p), 0) for p in phases)

    for layer in LAYERS:
        phases = (CHUNK,) if layer == UNATTRIBUTED else (SETUP, CHUNK)
        share = sum(
            100.0 * summary["self_s"].get((layer, p), 0.0) / totals[p]
            for p in phases
            if totals.get(p)
        )
        metrics[f"{layer}.calls"] = (summed("calls", layer, phases), "count")
        metrics[f"{layer}.self_s"] = (summed("self_s", layer, phases), "s")
        metrics[f"{layer}.share_pct"] = (share, "%")
    grid_pages = summed("size", "core.engine.page_scores", (CHUNK,))
    builds = summed("size", "serving.refresh")
    metrics.update(
        {
            "traces.io.rows": (summed("size", TRACES_IO), "count"),
            "core.engine.score.rows": (
                summed("size", "core.engine.score"),
                "count",
            ),
            "core.engine.page_scores.pages": (
                summed("size", "core.engine.page_scores"),
                "count",
            ),
            "core.engine.page_scores.memo_hit_pct": (
                100.0 * (1.0 - grid_pages / unique_pages)
                if unique_pages
                else 0.0,
                "%",
            ),
            "core.parallel.replay.accesses": (
                summed("size", "core.parallel.replay"),
                "count",
            ),
            "serving.drift.drifted": (summed("size", "serving.drift"), "count"),
            "serving.refresh.builds": (builds, "count"),
            "serving.refresh.failed": (builds - swaps, "count"),
            "serving.refresh.swaps": (swaps, "count"),
        }
    )
    return metrics
