"""Deterministic stage aggregation under the parallel executor.

The satellite contract: ``ParallelExecutor.replay`` folds each
worker-timed ``simulate.task`` section into the profiler in dispatch
order, so the profiler's section *structure* -- names, call counts,
canonical row order -- is identical at every worker count; only the
wall-clock seconds (non-deterministic by design) may differ.
"""

from repro.core.config import (
    FabricTopology,
    ParallelConfig,
)
from repro.core.pipeline import StageProfiler
from repro.cxl.fabric import CxlFabric
from repro.obs import Telemetry


class TestStageProfilerUnit:
    def test_add_accumulates_like_stage(self):
        profiler = StageProfiler()
        profiler.add("simulate.task", 0.25)
        profiler.add("simulate.task", 0.75, calls=2)
        assert profiler.seconds["simulate.task"] == 1.0
        assert profiler.calls["simulate.task"] == 3

    def test_rows_put_canonical_stages_first(self):
        profiler = StageProfiler()
        profiler.add("simulate.task", 0.5)
        profiler.add("simulate", 1.0)
        profiler.add("prepare", 0.25)
        names = [row[0] for row in profiler.rows()]
        assert names == ["prepare", "simulate", "simulate.task"]

    def test_shares_sum_to_one(self):
        profiler = StageProfiler()
        profiler.add("prepare", 1.0)
        profiler.add("simulate", 3.0)
        shares = [row[3] for row in profiler.rows()]
        assert abs(sum(shares) - 1.0) < 1e-12


class TestParallelAggregation:
    def _profile(self, config, pages, writes, workers):
        telemetry = Telemetry(seed=0)
        fabric = CxlFabric(
            FabricTopology(n_devices=4),
            config=config,
            parallel=ParallelConfig(workers=workers),
            telemetry=telemetry,
        )
        try:
            fabric.bind("lru", 0.0)
            for start in range(0, pages.shape[0], 2_000):
                fabric.ingest(
                    pages[start : start + 2_000],
                    writes[start : start + 2_000],
                )
            fabric.results()
        finally:
            fabric.close()
        return fabric.pipeline.profiler

    def test_sections_identical_across_worker_counts(
        self, obs_workload
    ):
        config, _, pages, writes = obs_workload
        serial = self._profile(config, pages, writes, workers=1)
        parallel = self._profile(config, pages, writes, workers=4)
        assert serial is not None and parallel is not None
        assert serial.calls == parallel.calls
        assert [r[0] for r in serial.rows()] == [
            r[0] for r in parallel.rows()
        ]

    def test_worker_timed_sections_are_recorded(self, obs_workload):
        config, _, pages, writes = obs_workload
        profiler = self._profile(config, pages, writes, workers=4)
        assert "simulate.task" in profiler.calls
        assert profiler.seconds["simulate.task"] > 0.0
