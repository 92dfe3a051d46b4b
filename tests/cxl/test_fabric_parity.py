"""Fabric <-> offline differential parity suite.

The contract of :class:`repro.cxl.fabric.CxlFabric`: replaying a
trace over N devices is *bit-identical* to running each device's
sub-stream through a single-shot offline simulation (the same staged
pipeline offline runs drive), for every placement and every
Fig. 6 strategy; chunked streaming ingestion equals the one-shot
replay; and the count-based per-link pricing reproduces the scalar
per-access :class:`~repro.cxl.device.CxlMemoryDevice` loop exactly.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.cache.setassoc import SetAssociativeCache
from repro.core.config import (
    PLACEMENTS,
    STRATEGIES,
    FabricTopology,
    GmmEngineConfig,
    IcgmmConfig,
)
from repro.core.pipeline import PreparedWorkload, StagedPipeline
from repro.core.policy import build_policy
from repro.cxl.device import CxlMemoryDevice
from repro.cxl.fabric import RANGE_STRIDE_PAGES, CxlFabric
from repro.traces.record import CACHE_LINE_SIZE

N_DEVICES = 4
WARMUP = 0.2


@pytest.fixture(scope="module")
def config():
    return IcgmmConfig(
        trace_length=24_000,
        gmm=GmmEngineConfig(n_components=8, max_train_samples=4_000),
    )


@pytest.fixture(scope="module")
def prepared(config):
    return StagedPipeline(config).prepare("memtier")


def _topology(placement):
    # Heterogeneous links so per-link pricing actually differs.
    return FabricTopology(
        n_devices=N_DEVICES,
        placement=placement,
        link_overhead_ns=(100, 150, 200, 250),
    )


@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("strategy", STRATEGIES)
class TestFabricOfflineParity:
    def test_per_device_stats_match_single_shot(
        self, config, prepared, placement, strategy
    ):
        """Every device's counters equal a fresh offline run on its
        sub-stream (same pipeline, same warm-up cut)."""
        fabric = CxlFabric(_topology(placement), config=config)
        result = fabric.run_prepared(
            prepared, strategy, warmup_fraction=WARMUP
        )
        assert result.accesses > 0

        pipeline = StagedPipeline(config)
        device_ids, local_pages = fabric.place(
            prepared.page_indices, prepared.page_frequency_scores
        )
        scores, fills = pipeline.strategy_scores(prepared, strategy)
        for device in range(N_DEVICES):
            positions = np.nonzero(device_ids == device)[0]
            policy = build_policy(
                strategy, prepared.engine.admission_threshold
            )
            stats = pipeline.simulate(
                SetAssociativeCache(config.geometry),
                policy,
                local_pages[positions],
                prepared.is_write[positions],
                scores=(
                    scores[positions] if scores is not None else None
                ),
                warmup_fraction=WARMUP,
                fill_scores=(
                    fills[positions] if fills is not None else None
                ),
            )
            assert stats == result.devices[device].stats, (
                placement,
                strategy,
                device,
            )

    def test_chunked_ingest_equals_one_shot(
        self, config, prepared, placement, strategy
    ):
        """Streaming ingestion (resumable per-device cursors) is
        bit-identical to the one-shot replay with no warm-up cut."""
        one_shot = CxlFabric(_topology(placement), config=config)
        reference = one_shot.run_prepared(
            prepared, strategy, warmup_fraction=0.0
        )

        streamed = CxlFabric(_topology(placement), config=config)
        streamed.bind(
            strategy,
            prepared.engine.admission_threshold,
            score_cuts=one_shot._score_cuts,
        )
        scores, _ = streamed.pipeline.strategy_scores(prepared, strategy)
        n = len(prepared)
        for start in range(0, n, 5_000):
            stop = min(start + 5_000, n)
            streamed.ingest(
                prepared.page_indices[start:stop],
                prepared.is_write[start:stop],
                scores=(
                    scores[start:stop] if scores is not None else None
                ),
                page_marginals=prepared.page_frequency_scores[
                    start:stop
                ],
            )
        result = streamed.results()
        for device in range(N_DEVICES):
            assert (
                result.devices[device].stats
                == reference.devices[device].stats
            )
            assert (
                result.devices[device].time_ns
                == reference.devices[device].time_ns
            )
        assert result.total_time_ns == reference.total_time_ns


@pytest.fixture(scope="module")
def evicting(config):
    """A stream that evicts on every device: 80 % of 20,000 accesses
    on half the cache's blocks, the rest over eight times them, 30 %
    writes, synthetic request scores, and each page's first score as
    its marginal."""
    rng = np.random.default_rng(1)
    n, n_blocks = 20_000, config.geometry.n_blocks
    hot = rng.integers(0, n_blocks // 2, n)
    cold = rng.integers(0, 8 * n_blocks, n)
    pages = np.where(rng.random(n) < 0.8, hot, cold)
    is_write = rng.random(n) < 0.3
    scores = rng.standard_normal(n)
    _, first, inverse = np.unique(
        pages, return_index=True, return_inverse=True
    )
    return PreparedWorkload(
        name="evicting",
        page_indices=pages,
        is_write=is_write,
        scores=scores,
        page_frequency_scores=scores[first][inverse],
        engine=SimpleNamespace(
            admission_threshold=float(np.quantile(scores, 0.1))
        ),
    )


def _assert_matches_device_walk(config, prepared, strategy):
    """Replay ``prepared`` over the fleet and walk every device's
    sub-stream through the scalar device, access by access; returns
    the fabric's result."""
    fabric = CxlFabric(_topology("interleave"), config=config)
    result = fabric.run_prepared(prepared, strategy, warmup_fraction=0.0)
    device_ids, local_pages = fabric.place(prepared.page_indices)
    scores, fills = fabric.pipeline.strategy_scores(prepared, strategy)
    for d in range(N_DEVICES):
        positions = np.nonzero(device_ids == d)[0]
        device = CxlMemoryDevice(
            SetAssociativeCache(config.geometry),
            build_policy(strategy, prepared.engine.admission_threshold),
        )
        link_ns = fabric.links[d].request_latency_ns(CACHE_LINE_SIZE)
        total_ns = 0
        lp = local_pages[positions]
        wr = prepared.is_write[positions]
        for i in range(positions.size):
            access = device.access(
                int(lp[i]),
                bool(wr[i]),
                float(scores[positions[i]])
                if scores is not None
                else 0.0,
                float(fills[positions[i]]) if fills is not None else None,
            )
            total_ns += link_ns + access.latency_ns
        assert device.stats == result.devices[d].stats
        assert total_ns == result.devices[d].time_ns
    return result


class TestFabricScalarRouterParity:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_pricing_matches_per_access_device_loop(
        self, config, prepared, strategy
    ):
        """Count-based per-link pricing equals summing the scalar
        device loop's per-access latencies plus the link, request by
        request."""
        _assert_matches_device_walk(config, prepared, strategy)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_evicting_stream_matches_per_access_device_loop(
        self, config, evicting, strategy
    ):
        """The same on a stream that evicts on every device (the
        memtier fixture never evicts under interleave placement), so
        victim choice is checked too."""
        result = _assert_matches_device_walk(config, evicting, strategy)
        assert all(d.stats.evictions > 0 for d in result.devices)


class TestPlacements:
    def test_interleave_balances_and_is_collision_free(self, config):
        fabric = CxlFabric(_topology("interleave"), config=config)
        pages = np.arange(1000, dtype=np.int64)
        device_ids, local = fabric.place(pages)
        assert set(np.unique(device_ids).tolist()) == set(
            range(N_DEVICES)
        )
        # Division keeps (device, local) unique per page.
        assert np.array_equal(
            local * N_DEVICES + device_ids, pages
        )

    def test_range_keeps_runs_together(self, config):
        topology = FabricTopology(n_devices=2, placement="range")
        fabric = CxlFabric(topology, config=config)
        stride = RANGE_STRIDE_PAGES
        pages = np.arange(4 * stride, dtype=np.int64)
        device_ids, local = fabric.place(pages)
        assert np.array_equal(local, pages)
        assert np.all(device_ids[:stride] == 0)
        assert np.all(device_ids[stride : 2 * stride] == 1)
        assert np.all(device_ids[2 * stride : 3 * stride] == 0)

    def test_score_placement_sends_hot_pages_to_fast_links(
        self, config
    ):
        topology = FabricTopology(
            n_devices=2,
            placement="score",
            link_overhead_ns=(500, 100),
        )
        fabric = CxlFabric(topology, config=config)
        pages = np.arange(100, dtype=np.int64)
        marginals = pages.astype(np.float64)  # page i scores i
        fabric.bind(
            "lru", score_cuts=fabric._cuts_from_marginals(marginals)
        )
        device_ids, _ = fabric.place(pages, marginals)
        # Device 1 has the faster link: the hottest half lands there.
        assert np.all(device_ids[50:] == 1)
        assert np.all(device_ids[:50] == 0)

    def test_score_placement_requires_binding(self, config):
        fabric = CxlFabric(_topology("score"), config=config)
        with pytest.raises(ValueError, match="bind"):
            fabric.place(np.arange(10), np.arange(10, dtype=float))

    def test_ingest_requires_bind(self, config):
        fabric = CxlFabric(_topology("interleave"), config=config)
        with pytest.raises(ValueError, match="bind"):
            fabric.ingest(np.arange(10), np.zeros(10, dtype=bool))

    def test_topology_validation(self):
        with pytest.raises(ValueError):
            FabricTopology(n_devices=0)
        with pytest.raises(ValueError):
            FabricTopology(placement="striped")
        with pytest.raises(ValueError):
            FabricTopology(n_devices=2, link_overhead_ns=(100,))
