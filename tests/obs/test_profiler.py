"""Stage aggregation of the lane loop.

``ParallelExecutor.replay`` times each lane replay under the
``simulate.task`` section of the pipeline's profiler, so a traced
fabric run carries one ``simulate.task`` call per replayed device
round next to the canonical stages.
"""

from types import SimpleNamespace

import repro.core.pipeline as pipeline_module
from repro.core.config import FabricTopology
from repro.core.pipeline import StageProfiler
from repro.cxl.fabric import CxlFabric
from repro.obs import Telemetry


def _clock(monkeypatch, *ticks):
    """Make the profiler read ``ticks`` from its clock, in order."""
    readings = iter(ticks)
    monkeypatch.setattr(
        pipeline_module,
        "time",
        SimpleNamespace(perf_counter=lambda: next(readings)),
    )


class TestStageProfilerUnit:
    def test_stage_accumulates_seconds_and_calls(self, monkeypatch):
        _clock(monkeypatch, 1.0, 1.25, 2.0, 2.75)
        profiler = StageProfiler()
        for _ in range(2):
            with profiler.stage("simulate.task"):
                pass
        assert profiler.seconds["simulate.task"] == 1.0
        assert profiler.calls["simulate.task"] == 2

    def test_rows_put_canonical_stages_first(self):
        profiler = StageProfiler()
        for name in ("simulate.task", "simulate", "prepare"):
            with profiler.stage(name):
                pass
        names = [row[0] for row in profiler.rows()]
        assert names == ["prepare", "simulate", "simulate.task"]

    def test_shares_sum_to_one(self, monkeypatch):
        _clock(monkeypatch, 0.0, 1.0, 1.0, 4.0)
        profiler = StageProfiler()
        for name in ("prepare", "simulate"):
            with profiler.stage(name):
                pass
        shares = [row[3] for row in profiler.rows()]
        assert shares == [0.25, 0.75]


class TestLaneLoopSections:
    def test_task_sections_are_recorded(self, obs_workload):
        config, _, pages, writes = obs_workload
        fabric = CxlFabric(
            FabricTopology(n_devices=4),
            config=config,
            telemetry=Telemetry(seed=0),
        )
        fabric.bind("lru", 0.0)
        for start in range(0, pages.shape[0], 2_000):
            fabric.ingest(
                pages[start : start + 2_000],
                writes[start : start + 2_000],
            )
        fabric.results()
        profiler = fabric.pipeline.profiler
        assert profiler.calls["simulate.task"] == (
            fabric._executor.tasks_dispatched
        )
        assert profiler.seconds["simulate.task"] > 0.0
