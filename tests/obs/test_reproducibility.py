"""Bit-reproducible telemetry: digests survive reruns and workers.

The snapshot digest hashes only families flagged deterministic plus
the logical-clock spans and event timeline, so two runs of the same
seeded workload -- back to back, or at different worker counts --
must produce byte-identical digests.
"""

import pytest

from repro.core.config import (
    FabricTopology,
    ParallelConfig,
    ServingConfig,
)
from repro.cxl.fabric import CxlFabric
from repro.obs import Telemetry
from repro.serving import IcgmmCacheService


def _telemetry():
    return Telemetry(seed=0)


def _fabric_snapshot(config, pages, writes, workers):
    telemetry = _telemetry()
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
    return telemetry.snapshot()


def _serving_snapshot(config, engine, pages, writes, workers):
    telemetry = _telemetry()
    service = IcgmmCacheService(
        engine,
        config=config,
        serving=ServingConfig(
            chunk_requests=2_000,
            n_shards=4,
            sharding="hash",
            strategy="gmm-caching-eviction",
            parallel=ParallelConfig(workers=workers),
        ),
        telemetry=telemetry,
    )
    try:
        service.ingest(pages, writes)
        service.summary()
    finally:
        service.close()
    return telemetry.snapshot()


class TestFabricDigests:
    def test_repeated_runs_share_a_digest(self, obs_workload):
        config, _, pages, writes = obs_workload
        first = _fabric_snapshot(config, pages, writes, workers=1)
        second = _fabric_snapshot(config, pages, writes, workers=1)
        assert first["digest"] == second["digest"]

    def test_worker_count_does_not_leak_into_digest(
        self, obs_workload
    ):
        config, _, pages, writes = obs_workload
        serial = _fabric_snapshot(config, pages, writes, workers=1)
        parallel = _fabric_snapshot(config, pages, writes, workers=4)
        assert serial["digest"] == parallel["digest"]
        # The wall-clock families still differ between runs but are
        # flagged non-deterministic, so they sit outside the digest.
        nondet = {
            f["name"]
            for f in serial["metrics"]
            if not f["deterministic"]
        }
        assert "executor_workers_count" in nondet


class TestServingDigests:
    def test_repeated_runs_share_a_digest(self, obs_workload):
        config, engine, pages, writes = obs_workload
        first = _serving_snapshot(
            config, engine, pages, writes, workers=1
        )
        second = _serving_snapshot(
            config, engine, pages, writes, workers=1
        )
        assert first["digest"] == second["digest"]

    def test_worker_count_does_not_leak_into_digest(
        self, obs_workload
    ):
        config, engine, pages, writes = obs_workload
        serial = _serving_snapshot(
            config, engine, pages, writes, workers=1
        )
        parallel = _serving_snapshot(
            config, engine, pages, writes, workers=4
        )
        assert serial["digest"] == parallel["digest"]

    def test_span_ids_are_stable_across_runs(self, obs_workload):
        config, engine, pages, writes = obs_workload
        first = _serving_snapshot(
            config, engine, pages, writes, workers=1
        )
        second = _serving_snapshot(
            config, engine, pages, writes, workers=1
        )
        assert [s["id"] for s in first["spans"]] == [
            s["id"] for s in second["spans"]
        ]
        assert first["spans"], "serving run must record chunk spans"


class TestSeedSeparation:
    def test_tracer_seed_rewrites_span_ids_only(self, obs_workload):
        """Different telemetry seeds relabel spans (and therefore the
        digest) without touching the metric values themselves."""
        config, _, pages, writes = obs_workload

        def snap(seed):
            telemetry = Telemetry(seed=seed)
            fabric = CxlFabric(
                FabricTopology(n_devices=2),
                config=config,
                telemetry=telemetry,
            )
            try:
                fabric.bind("lru", 0.0)
                fabric.ingest(pages[:2_000], writes[:2_000])
                fabric.results()
            finally:
                fabric.close()
            return telemetry.snapshot()

        a, b = snap(1), snap(2)
        assert a["digest"] != b["digest"]
        det = lambda snapshot: [
            f for f in snapshot["metrics"] if f["deterministic"]
        ]
        assert det(a) == det(b)
