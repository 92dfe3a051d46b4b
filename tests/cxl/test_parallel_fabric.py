"""Parallel fabric replay determinism tests.

The multicore contract of :class:`repro.cxl.fabric.CxlFabric`: any
worker count, one-shot or chunked, produces *byte-identical*
per-device counters and priced service times to the sequential
replay, and a worker crash propagates to the caller.
"""

import numpy as np
import pytest

from repro.core.config import (
    FabricTopology,
    GmmEngineConfig,
    IcgmmConfig,
    ParallelConfig,
)
from repro.cxl.fabric import CxlFabric

N_DEVICES = 4
N = 80_000

PARALLEL_VARIANTS = [ParallelConfig(workers=4)]


@pytest.fixture(scope="module")
def config():
    return IcgmmConfig(
        trace_length=16_000,
        gmm=GmmEngineConfig(n_components=8, max_train_samples=4_000),
    )


@pytest.fixture(scope="module")
def stream():
    rng = np.random.default_rng(17)
    pages = rng.integers(0, 30_000, N)
    is_write = rng.random(N) < 0.3
    scores = rng.standard_normal(N)
    return pages, is_write, scores


def _topology():
    return FabricTopology(
        n_devices=N_DEVICES, link_overhead_ns=(100, 150, 200, 250)
    )


def _replay(config, stream, parallel, strategy, chunked):
    pages, is_write, scores = stream
    fabric = CxlFabric(_topology(), config=config, parallel=parallel)
    fabric.bind(strategy, 0.1)
    try:
        if chunked:
            for start in range(0, N, 9_000):
                stop = start + 9_000
                fabric.ingest(
                    pages[start:stop],
                    is_write[start:stop],
                    scores=scores[start:stop],
                )
        else:
            fabric.ingest(pages, is_write, scores=scores)
        return fabric.results()
    finally:
        fabric.close()


@pytest.mark.parametrize(
    "parallel",
    PARALLEL_VARIANTS,
    ids=["thread4"],
)
@pytest.mark.parametrize("strategy", ["lru", "gmm-caching"])
@pytest.mark.parametrize("chunked", [False, True], ids=["oneshot", "chunked"])
def test_parallel_replay_is_bit_identical(
    config, stream, parallel, strategy, chunked
):
    sequential = _replay(
        config, stream, ParallelConfig(workers=1), strategy, chunked
    )
    parallel_result = _replay(
        config, stream, parallel, strategy, chunked
    )
    for seq, par in zip(
        sequential.devices, parallel_result.devices, strict=True
    ):
        assert par.stats == seq.stats
        assert par.time_ns == seq.time_ns
    assert (
        parallel_result.total_time_ns == sequential.total_time_ns
    )


def test_combined_strategy_parallel_parity(config, stream):
    """The combined strategy's fills, sliced per device chunk by
    chunk, drive eviction identically on worker threads."""
    pages, is_write, scores = stream
    marginals = (pages % 97).astype(np.float64) / 97.0

    def run(parallel):
        fabric = CxlFabric(
            _topology(), config=config, parallel=parallel
        )
        fabric.bind("gmm-caching-eviction", 0.1)
        try:
            for start in range(0, N, 9_000):
                stop = start + 9_000
                fabric.ingest(
                    pages[start:stop],
                    is_write[start:stop],
                    scores=scores[start:stop],
                    page_marginals=marginals[start:stop],
                )
            return fabric.results()
        finally:
            fabric.close()

    sequential = run(ParallelConfig(workers=1))
    for parallel in PARALLEL_VARIANTS:
        result = run(parallel)
        for seq, par in zip(
            sequential.devices, result.devices, strict=True
        ):
            assert par.stats == seq.stats
            assert par.time_ns == seq.time_ns


@pytest.mark.parametrize(
    "parallel",
    [ParallelConfig(workers=1), PARALLEL_VARIANTS[0]],
    ids=["inline", "thread4"],
)
def test_worker_crash_propagates(
    config, stream, parallel, monkeypatch
):
    """A failing device replay surfaces as the caller's exception,
    never as a silently dropped device."""
    import repro.core.parallel as parallel_mod

    def explode(task):
        raise RuntimeError("device replay exploded")

    monkeypatch.setattr(parallel_mod, "_run_replay", explode)
    pages, is_write, scores = stream
    fabric = CxlFabric(_topology(), config=config, parallel=parallel)
    fabric.bind("gmm-caching", 0.1)
    try:
        with pytest.raises(RuntimeError, match="exploded"):
            fabric.ingest(pages, is_write, scores=scores)
    finally:
        fabric.close()
