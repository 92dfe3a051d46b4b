"""Serving-on-fabric smoke test.

Drives a :class:`~repro.cxl.fabric.CxlFabric` the way the streaming
service drives its shard planes: the live stream arrives in chunks,
each chunk is stamped and scored under the deployed engine through
the shared pipeline's Score stage
(:meth:`~repro.core.pipeline.StagedPipeline.chunk_features`), and the
fleet replays it with resumable per-device cursors.  The rolling
totals must match a one-shot replay bit for bit -- chunking is an
implementation detail, exactly as for the sharded serving planes.
"""

import numpy as np
import pytest

from repro.core.config import (
    FabricTopology,
    GmmEngineConfig,
    IcgmmConfig,
)
from repro.core.pipeline import StagedPipeline
from repro.cxl.fabric import CxlFabric

CHUNK = 3_000


@pytest.fixture(scope="module")
def setup():
    config = IcgmmConfig(
        trace_length=21_000,
        gmm=GmmEngineConfig(n_components=8, max_train_samples=4_000),
    )
    prepared = StagedPipeline(config).prepare("memtier")
    return config, prepared


def test_streamed_engine_scoring_matches_one_shot(setup):
    """Chunked stamp->score->replay over the fleet equals the
    one-shot offline replay of the same stream."""
    config, prepared = setup
    topology = FabricTopology(n_devices=4, placement="interleave")
    strategy = "gmm-caching-eviction"

    reference = CxlFabric(topology, config=config)
    expected = reference.run_prepared(
        prepared, strategy, warmup_fraction=0.0
    )

    service = CxlFabric(topology, config=config)
    service.bind(strategy, prepared.engine.admission_threshold)
    engine = prepared.engine
    pages = prepared.page_indices
    n = pages.shape[0]
    streamed_accesses = 0
    for start in range(0, n, CHUNK):
        stop = min(start + CHUNK, n)
        chunk_pages = pages[start:stop]
        # The serving stamping path: features from the stream cursor,
        # scored under the currently-deployed engine.
        features = service.pipeline.chunk_features(chunk_pages, start)
        scores = engine.score(features)
        chunk_stats = service.ingest(
            chunk_pages,
            prepared.is_write[start:stop],
            scores=scores,
            page_marginals=prepared.page_frequency_scores[start:stop],
        )
        streamed_accesses += chunk_stats.accesses
    result = service.results()

    assert streamed_accesses == n
    for device in range(topology.n_devices):
        assert (
            result.devices[device].stats
            == expected.devices[device].stats
        )
    assert result.total_time_ns == expected.total_time_ns


def test_chunked_scores_equal_prepared_scores(setup):
    """The chunked stamp+score path reproduces the Prepare stage's
    whole-stream request scores exactly (same engine, same
    Algorithm 1 stamping) -- streaming scoring is not an
    approximation."""
    config, prepared = setup
    fabric = CxlFabric(
        FabricTopology(n_devices=2), config=config
    )
    pages = prepared.page_indices
    chunked = np.concatenate(
        [
            prepared.engine.score(
                fabric.pipeline.chunk_features(
                    pages[start : start + CHUNK], start
                )
            )
            for start in range(0, pages.shape[0], CHUNK)
        ]
    )
    assert np.array_equal(chunked, prepared.scores)


def test_fleet_summary_shape(setup):
    """The fleet result dict is consumable by dashboards/CLI."""
    config, prepared = setup
    fabric = CxlFabric(
        FabricTopology(
            n_devices=2, link_overhead_ns=(100, 300)
        ),
        config=config,
    )
    result = fabric.run_prepared(prepared, "lru")
    summary = result.as_dict()
    assert summary["accesses"] == result.accesses
    assert len(summary["devices"]) == 2
    assert (
        summary["devices"][0]["link_request_ns"]
        < summary["devices"][1]["link_request_ns"]
    )
    assert summary["average_latency_us"] > 0
