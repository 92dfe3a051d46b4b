"""Disabled-chaos parity: no injector means the pre-chaos bit stream.

The chaos wiring gates every hot-path hook on ``injector is not
None``; these tests pin the contract that a run with chaos disabled
(``chaos=None``) is byte-identical -- counters, summaries, payload
keys -- to a run constructed without any chaos argument at all.
"""

import json

import pytest

from repro.core.config import FabricTopology, ServingConfig
from repro.cxl.fabric import CxlFabric
from repro.serving import IcgmmCacheService

#: The two spellings of "chaos off".
DISABLED = {
    "omitted": "omitted",
    "none": None,
}


def _serve(config, engine, pages, writes, chaos):
    serving = ServingConfig(
        chunk_requests=2_000,
        n_shards=4,
        sharding="hash",
        strategy="gmm-caching-eviction",
        refresh_enabled=True,
        refresh_cooldown_chunks=2,
    )
    kwargs = {} if chaos == "omitted" else {"chaos": chaos}
    service = IcgmmCacheService(
        engine, config=config, serving=serving, **kwargs
    )
    try:
        service.ingest(pages, writes)
        return service.summary()
    finally:
        service.close()


def _stream_fabric(config, pages, writes, chaos):
    kwargs = {} if chaos == "omitted" else {"chaos": chaos}
    fabric = CxlFabric(
        FabricTopology(n_devices=4), config=config, **kwargs
    )
    try:
        fabric.bind("lru", 0.0)
        for start in range(0, pages.shape[0], 2_000):
            fabric.ingest(
                pages[start : start + 2_000],
                writes[start : start + 2_000],
            )
        return fabric.results().as_dict()
    finally:
        fabric.close()


class TestServingParity:
    @pytest.mark.parametrize("spelling", list(DISABLED))
    def test_summary_is_byte_identical(
        self, chaos_workload, spelling
    ):
        config, engine, pages, writes = chaos_workload
        reference = _serve(config, engine, pages, writes, "omitted")
        candidate = _serve(
            config, engine, pages, writes, DISABLED[spelling]
        )
        assert json.dumps(candidate, sort_keys=True) == json.dumps(
            reference, sort_keys=True
        )

    def test_disabled_summary_has_no_chaos_section(
        self, chaos_workload
    ):
        config, engine, pages, writes = chaos_workload
        summary = _serve(config, engine, pages, writes, None)
        assert "chaos" not in summary


class TestFabricParity:
    @pytest.mark.parametrize("spelling", list(DISABLED))
    def test_streamed_results_are_byte_identical(
        self, chaos_workload, spelling
    ):
        config, _, pages, writes = chaos_workload
        reference = _stream_fabric(config, pages, writes, "omitted")
        candidate = _stream_fabric(
            config, pages, writes, DISABLED[spelling]
        )
        assert json.dumps(candidate, sort_keys=True) == json.dumps(
            reference, sort_keys=True
        )

    def test_disabled_devices_have_no_failover_keys(
        self, chaos_workload
    ):
        config, _, pages, writes = chaos_workload
        result = _stream_fabric(config, pages, writes, None)
        for device in result["devices"]:
            assert "failover_accesses" not in device
            assert "degraded_time_ns" not in device


def _prepared_workload(pages, writes):
    import numpy as np

    from repro.core.pipeline import PreparedWorkload

    class _StubEngine:
        admission_threshold = 0.0

    return PreparedWorkload(
        name="parity-prepared",
        page_indices=np.asarray(pages, dtype=np.int64),
        is_write=np.asarray(writes, dtype=bool),
        scores=np.zeros(pages.shape[0], dtype=np.float64),
        page_frequency_scores=np.zeros(
            pages.shape[0], dtype=np.float64
        ),
        engine=_StubEngine(),
    )


def _run_prepared(config, pages, writes, chaos="omitted", monitor="omitted"):
    kwargs = {}
    if chaos != "omitted":
        kwargs["chaos"] = chaos
    if monitor != "omitted":
        kwargs["monitor"] = monitor
    fabric = CxlFabric(
        FabricTopology(n_devices=4), config=config, **kwargs
    )
    try:
        return fabric.run_prepared(
            _prepared_workload(pages, writes), "lru"
        ).as_dict()
    finally:
        fabric.close()


class TestPreparedParity:
    """``run_prepared`` keeps the disabled-chaos contract too: with
    no injector and no monitor it executes the exact pre-chaos
    one-shot path, byte for byte."""

    @pytest.mark.parametrize("spelling", list(DISABLED))
    def test_prepared_results_are_byte_identical(
        self, chaos_workload, spelling
    ):
        config, _, pages, writes = chaos_workload
        reference = _run_prepared(config, pages, writes)
        candidate = _run_prepared(
            config, pages, writes, chaos=DISABLED[spelling]
        )
        assert json.dumps(candidate, sort_keys=True) == json.dumps(
            reference, sort_keys=True
        )

    def test_disabled_monitor_is_byte_identical(self, chaos_workload):
        config, _, pages, writes = chaos_workload
        reference = _run_prepared(config, pages, writes)
        candidate = _run_prepared(config, pages, writes, monitor=False)
        assert json.dumps(candidate, sort_keys=True) == json.dumps(
            reference, sort_keys=True
        )

    def test_single_device_fleet_gets_no_monitor(self, chaos_workload):
        """No fleet median to compare against and nowhere to re-home:
        a 1-device fabric silently drops the monitor and keeps the
        pre-monitor path."""
        config, _, pages, writes = chaos_workload
        fabric = CxlFabric(
            FabricTopology(n_devices=1),
            config=config,
            monitor=True,
        )
        try:
            assert fabric.monitor is None
            result = fabric.run_prepared(
                _prepared_workload(pages, writes), "lru"
            )
            assert result.accesses > 0
        finally:
            fabric.close()
