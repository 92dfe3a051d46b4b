"""Pinned digests of the combined strategy through device failovers.

``gmm-caching-eviction`` admits on request scores and stores each
filled block's time-marginalised page score.  When a device fails,
its accesses replay on healthy devices under failover tags, and their
fills must still be their pages' marginals.  These cases replay
memtier's prepared stream (24,000 accesses, K = 8) through the chaos
``device_failure`` scenario under the interleave and score
placements, two chaos seeds and one and two workers, and compare a
digest of the priced fleet result and the fault and event timelines
with the digest recorded before the fills became a per-access stream.
Every case fails over at least one access.

memtier never fills the default 512-block device caches, so there
the stored fills decide nothing; the ``evicting`` cases give each
device 128 blocks, and on them a wrong fill moves victims.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.cache.setassoc import CacheGeometry
from repro.chaos import scenario_chaos
from repro.core.config import (
    FabricTopology,
    GmmEngineConfig,
    IcgmmConfig,
    ParallelConfig,
)
from repro.core.pipeline import StagedPipeline
from repro.cxl.fabric import CxlFabric

CHUNK = 2_048
#: Chunks in the 24,000-access stream: the fault plan's horizon.
HORIZON = 12

#: Device cache of each case (``None``: the default geometry).
GEOMETRIES = {
    "default": None,
    "evicting": CacheGeometry(
        capacity_bytes=128 * 4096, block_bytes=4096, associativity=8
    ),
}

#: sha256 of each (geometry, placement, chaos seed) run, the same at
#: every worker count; recorded when the combined strategy's fills
#: came from per-device page -> score dicts.
PINNED = {
    ("default", "interleave", 0): (
        "a9dceba553beb87c1e4c8bccedcc62292af41fe1c736d7636c80e532853e511c"
    ),
    ("default", "interleave", 2): (
        "20e5373929451b8c3e11c90a3a62f43b689ba7c4848fb79cd06269aea3714a8d"
    ),
    ("default", "score", 0): (
        "9ac290f54f716a19a19b43f514a86fb6157ec4ed5dc13a7ffacff07e2a133b48"
    ),
    ("default", "score", 2): (
        "52fb5eb91419701581a775f0047d9fdd6cb22ce44b147ad4df95cb058bedff16"
    ),
    ("evicting", "interleave", 0): (
        "829bdcd8ddfe64dc58b73206f2d569ba3028fbda85713e423a94b3433f061869"
    ),
    ("evicting", "interleave", 2): (
        "1cdf23b8eefc77f68374f482458be44eda35349725f7dadf2f58861f5dbefc02"
    ),
    ("evicting", "score", 0): (
        "fd88d6382f2d85323755e4f18184fe20e39d99a9e78d51aa82bccbeacb494ed7"
    ),
    ("evicting", "score", 2): (
        "7f2be3510d2691684f56c45309975d2b2bdc1f8ecf8a856e0a79816374ad183a"
    ),
}


@pytest.fixture(scope="module")
def setup():
    config = IcgmmConfig(
        trace_length=24_000,
        gmm=GmmEngineConfig(n_components=8, max_train_samples=4_000),
    )
    return config, StagedPipeline(config).prepare("memtier")


def run_digest(setup, geometry: str, placement: str, seed: int,
               workers: int):
    """(digest, failover accesses, evictions) of one chaotic combined
    run."""
    config, prepared = setup
    if GEOMETRIES[geometry] is not None:
        config = dataclasses.replace(config, geometry=GEOMETRIES[geometry])
    fabric = CxlFabric(
        FabricTopology(n_devices=4, placement=placement),
        config=config,
        parallel=ParallelConfig(workers=workers),
        chaos=scenario_chaos("device_failure", seed, horizon_chunks=HORIZON),
    )
    try:
        result = fabric.run_prepared(
            prepared, "gmm-caching-eviction", chunk_requests=CHUNK
        )
    finally:
        fabric.close()
    payload = {
        "result": result.as_dict(),
        "timeline": fabric.injector.timeline(),
        "events": [event.as_dict() for event in fabric.metrics.events()],
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()
    failover = sum(d.failover_stats.accesses for d in result.devices)
    return digest, failover, result.totals.evictions


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("geometry,placement,seed", sorted(PINNED))
def test_combined_failover_digest(setup, geometry, placement, seed,
                                  workers):
    digest, failover, evictions = run_digest(
        setup, geometry, placement, seed, workers
    )
    assert failover > 0
    assert (evictions > 0) == (geometry == "evicting")
    assert digest == PINNED[(geometry, placement, seed)]
