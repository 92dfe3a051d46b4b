"""Tests of the benchmark's own arithmetic and output checks.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import itertools
import threading

import numpy as np
import pytest

from perfbench import hostref
from perfbench.checks import (
    chunk_digest,
    fabric_replay_problems,
    serve_chunk_problems,
    serve_pass_problems,
    tail_percentile,
)
from perfbench.layers import traced
from perfbench.spans import (
    PAGE_SCORES,
    SCORE,
    UNATTRIBUTED,
    Span,
    SpanRecorder,
    layer_summary,
    self_times,
)
from perfbench.workload import Window, consistency_problems
from repro.cache.stats import CacheStats
from repro.core.config import GmmEngineConfig
from repro.core.engine import GmmPolicyEngine
from repro.serving.service import ChunkReport


def _span(name, start, end, parent=-1):
    return Span(name, start, end, parent, root=0, chunk=0)


class TestSelfTime:
    def test_nested_score_is_grid_time(self):
        spans = [
            _span("chunk", 0.0, 10.0),
            _span("traces.io", 0.0, 1.0, 0),
            _span(PAGE_SCORES, 2.0, 6.0, 0),
            _span(SCORE, 3.0, 5.0, 2),
            _span(SCORE, 7.0, 8.0, 0),
        ]
        assert self_times(spans) == pytest.approx([4.0, 1.0, 2.0, 2.0, 1.0])
        summary = layer_summary(spans)
        own = summary["self_s"]
        assert own[PAGE_SCORES, "chunk"] == pytest.approx(4.0)
        assert own[SCORE, "chunk"] == pytest.approx(1.0)
        assert own[UNATTRIBUTED, "chunk"] == pytest.approx(4.0)
        assert sum(own.values()) == pytest.approx(summary["totals"]["chunk"])
        assert summary["calls"][SCORE, "chunk"] == 1
        assert summary["calls"][UNATTRIBUTED, "chunk"] == 1

    def test_children_are_clipped_and_merged(self):
        spans = [
            _span("chunk", 0.0, 10.0),
            _span("a", 2.0, 6.0, 0),
            _span("b", 4.0, 12.0, 0),
        ]
        assert self_times(spans)[0] == pytest.approx(2.0)

    def test_recorder_links_parent_root_and_size(self):
        recorder = SpanRecorder()
        double = recorder.wrap("inner", lambda x: 2 * x, lambda a, r: r)
        with recorder.span("chunk"):
            assert double(21) == 42
        root, inner = recorder.spans
        assert (inner.parent, inner.root, inner.size) == (0, 0, 42)
        assert root.start <= inner.start <= inner.end <= root.end

    def test_traced_program_grid_charges_nested_scores(self):
        rng = np.random.default_rng(0)
        features = np.column_stack([rng.integers(0, 64, 400), rng.random(400)])
        engine = GmmPolicyEngine.train(
            features.astype(float),
            GmmEngineConfig(n_components=2, max_iter=5),
            rng,
        )
        original = GmmPolicyEngine.__dict__["page_scores"]
        recorder = SpanRecorder()
        with traced(recorder), recorder.span("chunk"):
            engine.page_scores(np.arange(16))
        assert GmmPolicyEngine.__dict__["page_scores"] is original
        names = [span.name for span in recorder.spans]
        assert names[:3] == ["chunk", PAGE_SCORES, SCORE]
        summary = layer_summary(recorder.spans)
        assert (SCORE, "chunk") not in summary["calls"]
        assert summary["size"][PAGE_SCORES, "chunk"] == 16


class TestPercentileRule:
    def test_p90_needs_ten_samples_beyond(self):
        assert tail_percentile(list(range(100)), 90) == pytest.approx(89.1)
        with pytest.raises(ValueError):
            tail_percentile(list(range(99)), 90)

    def test_p50_needs_twenty_samples(self):
        assert tail_percentile(list(range(20)), 50) == pytest.approx(9.5)
        with pytest.raises(ValueError):
            tail_percentile(list(range(19)), 50)


class TestNormalisation:
    def test_scales_to_the_nominal_kernel(self):
        nominal = hostref.NOMINAL_KERNEL_S
        assert hostref.normalise(0.05, 2 * nominal) == pytest.approx(0.025)
        assert hostref.normalise(0.05, nominal) == pytest.approx(0.05)
        with pytest.raises(ValueError):
            hostref.normalise(0.05, 0.0)

    def test_kernel_fills_a_tenth_of_the_call(self):
        assert hostref.kernel_runs_for(0.2, 1e-3) == 20
        assert hostref.kernel_runs_for(1e-3, 1e-3) == hostref.MIN_KERNEL_RUNS

    def test_call_is_normalised_by_its_own_kernel_median(self, monkeypatch):
        nominal = hostref.NOMINAL_KERNEL_S
        runs = itertools.chain(
            [nominal] * 6, [2 * nominal, 4 * nominal, 3 * nominal]
        )
        monkeypatch.setattr(hostref, "reference_kernel", lambda: next(runs))
        host = hostref.HostReference()
        assert host.after_call(0.01) == pytest.approx(0.01 / 3)
        assert host.median_s == pytest.approx(3 * nominal)

    def test_window_throughput_uses_normalised_time(self):
        class HalfSpeedHost:
            def after_call(self, raw_s):
                return raw_s / 2

        window = Window(HalfSpeedHost())
        window.add(0.5, 1000)
        window.add(1.5, 3000)
        assert window.throughput() == pytest.approx(4000 / 1.0)

    def test_thread_started_during_the_kernel_is_refused(self, monkeypatch):
        host = hostref.HostReference()
        release = threading.Event()
        worker = threading.Thread(target=release.wait, args=(5,))

        def kernel():
            if not worker.is_alive():
                worker.start()
            return hostref.NOMINAL_KERNEL_S

        monkeypatch.setattr(hostref, "reference_kernel", kernel)
        try:
            with pytest.raises(RuntimeError, match="thread count changed"):
                host.after_call(0.01)
        finally:
            release.set()
            worker.join(timeout=5)
        assert not worker.is_alive()


def _report(index, accesses, measured):
    return ChunkReport(
        chunk_index=index,
        accesses=accesses,
        stats=CacheStats(hits=measured),
        drift=None,
        swapped=False,
        generation=0,
    )


class TestOutputChecks:
    pages = np.arange(100, 108)
    writes = np.array([0, 1, 0, 0, 1, 0, 0, 0], dtype=bool)

    def check_chunk(self, pages, report, index=1):
        digest = chunk_digest(self.pages, self.writes)
        return serve_chunk_problems(
            index, pages, self.writes, [report], digest, 8, 4
        )

    def test_correct_chunk_passes(self):
        assert self.check_chunk(self.pages, _report(1, 8, 8)) == []
        assert self.check_chunk(self.pages, _report(0, 8, 4), index=0) == []

    def test_reordered_chunk_fails(self):
        swapped = self.pages.copy()
        swapped[[2, 3]] = swapped[[3, 2]]
        problems = self.check_chunk(swapped, _report(1, 8, 8))
        assert problems == ["chunk 1: accesses lost or reordered"]

    def test_miscounted_chunk_fails(self):
        assert self.check_chunk(self.pages, _report(1, 8, 7))
        assert self.check_chunk(self.pages, _report(2, 8, 8))

    def test_rows_not_summing_to_totals_fail(self):
        totals = CacheStats(hits=6, misses=4)
        half = CacheStats(hits=3, misses=2)
        ok = serve_pass_problems(20, 8, 3, 20, 10, totals, [half, half], [totals])
        assert ok == []
        bad_shard = CacheStats(hits=3, misses=1)
        assert serve_pass_problems(
            20, 8, 3, 20, 10, totals, [half, bad_shard], [totals]
        ) == ["shard rows do not sum to the totals"]
        assert serve_pass_problems(20, 8, 2, 20, 10, totals, [half, half], [totals])

    def test_fabric_device_counts(self):
        assert fabric_replay_problems([5, 6], [5, 6]) == []
        assert len(fabric_replay_problems([5, 7], [5, 6])) == 1

    def test_replays_must_agree(self):
        row = {"miss_rate_pct": 5.0, "avg_access_us": 7.0}
        assert consistency_problems([{"lru": row}, {"lru": dict(row)}]) == []
        drifted = {**row, "miss_rate_pct": 5.0000001}
        assert consistency_problems([{"lru": row}, {"lru": drifted}])
