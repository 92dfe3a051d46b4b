"""The float serving path end to end, against the every-lane kernels.

A seeded two-tenant stream whose hot regions move every phase (as
perfbench's serve-drift builds it, at small scale) runs through
:class:`IcgmmCacheService` with a float engine and real refresh
builds.  Warm folds kill components, and the scoring kernel and the
fused E+M pass then skip them; the run must equal, bit for bit, the
same run with the kernels that run every component (the oracles of
``tests/gmm/test_model.py`` and ``tests/gmm/test_em_live.py``)
patched in: every chunk report, every swap threshold and the final
mixture.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import (
    SIMULATION_SCALE,
    GmmEngineConfig,
    IcgmmConfig,
    ServingConfig,
)
from repro.core.engine import GmmPolicyEngine
from repro.gmm.em import EMTrainer
from repro.gmm.model import GaussianMixture
from repro.serving import IcgmmCacheService
from repro.traces.mixing import multi_tenant_trace, relocate
from repro.traces.preprocess import transform_timestamps
from repro.traces.workloads import get_workload

PHASES = 8
PHASE_ACCESSES = 8_000
CHUNK = 4_096


def _test_module(relative: str):
    path = Path(__file__).resolve().parents[1] / relative
    spec = importlib.util.spec_from_file_location(
        f"oracle_{path.stem}", path
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def drifting_stream():
    """Heap and hashmap tenants in their own partitions, every hot
    region moved by an eighth of a partition per phase."""
    rng = np.random.default_rng(7)
    partition = ServingConfig().partition_pages
    pages, writes = [], []
    for phase in range(PHASES):
        trace = multi_tenant_trace(
            [
                get_workload(name, scale=SIMULATION_SCALE)
                for name in ("heap", "hashmap")
            ],
            [1.0, 1.0],
            PHASE_ACCESSES,
            rng,
            partition_pages=partition,
        )
        if phase:
            trace = relocate(trace, base_page=phase * (partition // 8))
        pages.append(trace.page_indices())
        writes.append(trace.is_write)
    return np.concatenate(pages), np.concatenate(writes)


def _serve(pages, writes):
    """Train on the leading 30 %, then serve the whole stream with
    refresh on; returns the reports, swaps, built engines and the
    final engine."""
    config = IcgmmConfig(
        seed=1,
        gmm=GmmEngineConfig(
            n_components=64, max_iter=20, max_train_samples=8_000
        ),
    )
    n_train = int(0.3 * pages.size)
    timestamps = transform_timestamps(
        n_train,
        config.len_window,
        config.len_access_shot,
        config.timestamp_mode,
    )
    features = np.column_stack(
        [pages[:n_train].astype(float), timestamps.astype(float)]
    )
    engine = GmmPolicyEngine.train(
        features, config.gmm, np.random.default_rng(1)
    )
    built = []
    service = IcgmmCacheService(
        engine,
        config=config,
        serving=ServingConfig(chunk_requests=CHUNK),
        measure_from=n_train,
    )
    build = service.refresher.build

    def recording_build(current):
        refreshed = build(current)
        built.append(refreshed)
        return refreshed

    service.refresher.build = recording_build
    reports = service.ingest(pages, writes)
    return reports, service.swaps, built, service.engine


def _bits(value) -> np.ndarray:
    return np.asarray(value, dtype=np.float64).view(np.uint64)


def _same(a, b) -> bool:
    """Bitwise float equality, with every NaN equal to every NaN."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    nan = np.isnan(a)
    return (
        a.shape == b.shape
        and np.array_equal(nan, np.isnan(b))
        and np.array_equal(_bits(a)[~nan], _bits(b)[~nan])
    )


def _same_report(a, b) -> bool:
    if (a.chunk_index, a.accesses, a.stats, a.swapped, a.generation) != (
        b.chunk_index, b.accesses, b.stats, b.swapped, b.generation
    ):
        return False
    if a.drift is None or b.drift is None:
        return a.drift is b.drift
    return (
        _same(a.drift.ks, b.drift.ks)
        and _same(
            a.drift.below_threshold_fraction,
            b.drift.below_threshold_fraction,
        )
        and (a.drift.signal, a.drift.drifted, a.drift.baselining)
        == (b.drift.signal, b.drift.drifted, b.drift.baselining)
    )


class TestFloatRefreshPath:
    def test_equals_every_lane_kernels(self, drifting_stream, monkeypatch):
        pages, writes = drifting_stream
        reports, swaps, built, final = _serve(pages, writes)
        k = final.model.n_components
        assert swaps and final.quantized is None
        assert any(
            np.count_nonzero(engine.model.weights == 0.0) >= k // 2
            for engine in built
        ), "the folds must leave mixtures at least half dead"

        scoring = _test_module("gmm/test_model.py")._EveryLaneKernel
        folding = _test_module("gmm/test_em_live.py")._EveryLanePass
        for name in ("_weighted_block", "log_score_samples"):
            monkeypatch.setattr(
                GaussianMixture, name, getattr(scoring, name), raising=False
            )
        for name in ("_block_weighted", "_em_pass"):
            monkeypatch.setattr(
                EMTrainer, name, getattr(folding, name), raising=False
            )
        o_reports, o_swaps, _, o_final = _serve(pages, writes)

        assert len(reports) == len(o_reports)
        assert all(_same_report(a, b) for a, b in zip(reports, o_reports))
        assert len(swaps) == len(o_swaps)
        assert all(
            a.chunk_index == b.chunk_index and _same(a.threshold, b.threshold)
            for a, b in zip(swaps, o_swaps)
        )
        for name in ("weights", "means", "covariances"):
            assert _same(
                getattr(final.model, name), getattr(o_final.model, name)
            ), name
