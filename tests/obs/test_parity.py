"""Disabled-telemetry parity: no bundle means the pre-telemetry bits.

Every instrumented layer gates its hooks on ``telemetry is not
None``; these tests pin the contract that a run with telemetry
disabled (``None``) is byte-identical -- counters, summaries,
payload keys -- to a run constructed without any telemetry argument
at all, and that a :class:`~repro.obs.Telemetry` bundle observes
without perturbing the results.
"""

import json

import pytest

from repro.chaos.scenarios import (
    run_fabric_scenario,
    run_serving_scenario,
    scenario_chaos,
)
from repro.core.config import (
    FabricTopology,
    ServingConfig,
)
from repro.cxl.fabric import CxlFabric
from repro.obs import Telemetry
from repro.serving import IcgmmCacheService

#: The two spellings of "telemetry off".
DISABLED = {
    "omitted": "omitted",
    "none": None,
}


def _serving_config():
    return ServingConfig(
        chunk_requests=2_000,
        n_shards=4,
        sharding="hash",
        strategy="gmm-caching-eviction",
        refresh_enabled=True,
        refresh_cooldown_chunks=2,
    )


def _serve(config, engine, pages, writes, telemetry):
    kwargs = (
        {} if telemetry == "omitted" else {"telemetry": telemetry}
    )
    service = IcgmmCacheService(
        engine, config=config, serving=_serving_config(), **kwargs
    )
    service.ingest(pages, writes)
    return service.summary()


def _stream_fabric(config, pages, writes, telemetry):
    kwargs = (
        {} if telemetry == "omitted" else {"telemetry": telemetry}
    )
    fabric = CxlFabric(
        FabricTopology(n_devices=4), config=config, **kwargs
    )
    fabric.bind("lru", 0.0)
    for start in range(0, pages.shape[0], 2_000):
        fabric.ingest(
            pages[start : start + 2_000],
            writes[start : start + 2_000],
        )
    return fabric.results().as_dict()


class TestServingParity:
    @pytest.mark.parametrize("spelling", list(DISABLED))
    def test_summary_is_byte_identical(self, obs_workload, spelling):
        config, engine, pages, writes = obs_workload
        reference = _serve(config, engine, pages, writes, "omitted")
        candidate = _serve(
            config, engine, pages, writes, DISABLED[spelling]
        )
        assert json.dumps(candidate, sort_keys=True) == json.dumps(
            reference, sort_keys=True
        )

    def test_enabled_telemetry_does_not_perturb_results(
        self, obs_workload
    ):
        config, engine, pages, writes = obs_workload
        reference = _serve(config, engine, pages, writes, "omitted")
        telemetry = Telemetry(seed=0)
        observed = _serve(config, engine, pages, writes, telemetry)
        assert json.dumps(observed, sort_keys=True) == json.dumps(
            reference, sort_keys=True
        )
        assert len(telemetry.registry) > 0


class TestFabricParity:
    @pytest.mark.parametrize("spelling", list(DISABLED))
    def test_streamed_results_are_byte_identical(
        self, obs_workload, spelling
    ):
        config, _, pages, writes = obs_workload
        reference = _stream_fabric(config, pages, writes, "omitted")
        candidate = _stream_fabric(
            config, pages, writes, DISABLED[spelling]
        )
        assert json.dumps(candidate, sort_keys=True) == json.dumps(
            reference, sort_keys=True
        )

    def test_enabled_telemetry_does_not_perturb_results(
        self, obs_workload
    ):
        config, _, pages, writes = obs_workload
        reference = _stream_fabric(config, pages, writes, "omitted")
        telemetry = Telemetry(seed=0)
        observed = _stream_fabric(config, pages, writes, telemetry)
        assert json.dumps(observed, sort_keys=True) == json.dumps(
            reference, sort_keys=True
        )


class TestScenarioParity:
    """The chaos scenario runners accept telemetry without changing
    their scorecards -- faulted or fault-free."""

    @pytest.mark.parametrize("faulted", [False, True])
    def test_fabric_scenario_rows_unchanged(
        self, obs_workload, faulted
    ):
        config, _, pages, writes = obs_workload
        chaos = (
            scenario_chaos("device_failure", seed=0, horizon_chunks=4)
            if faulted
            else None
        )
        reference = run_fabric_scenario(
            chaos, pages, writes, config=config, chunk_requests=2_000
        )
        observed = run_fabric_scenario(
            chaos,
            pages,
            writes,
            config=config,
            chunk_requests=2_000,
            telemetry=Telemetry(seed=0),
        )
        assert json.dumps(observed, sort_keys=True) == json.dumps(
            reference, sort_keys=True
        )

    def test_serving_scenario_rows_unchanged(self, obs_workload):
        config, engine, pages, writes = obs_workload
        chaos = scenario_chaos(
            "shard_stall", seed=0, horizon_chunks=4
        )
        kwargs = {"config": config, "serving": _serving_config()}
        reference = run_serving_scenario(
            chaos, engine, pages, writes, **kwargs
        )
        observed = run_serving_scenario(
            chaos,
            engine,
            pages,
            writes,
            telemetry=Telemetry(seed=0),
            **kwargs,
        )
        assert json.dumps(observed, sort_keys=True) == json.dumps(
            reference, sort_keys=True
        )
