"""Pinned digests of the serving loop's per-chunk outputs.

The serving chunk scores each distinct (page, timestamp) row once and
counts every shard and tenant in one pass; both are pure
restructurings, so every output must keep the bits it had before
them.  These cases replay a stream built to stress both -- whole
Algorithm-1 timestamp windows of one hot page, two tenants, a measured
suffix that starts mid-chunk -- through several chunk sizes (1 access,
an odd 31, 4,096, and 12,000, which wraps the prose timestamp period
of ``len_access_shot`` = 10,000) and shard layouts (1, 2, 4 and 8
hash shards; tenant mode with stalls that degrade whole shards), and
compare a digest of every chunk report (drift ``ks`` floats
included), the shard and tenant snapshots after every chunk and the
chaos event log with the digest the code gave before those
restructurings.

The digests must not depend on the host's floating-point libraries
(numpy's SIMD ``exp``/``log`` loops and BLAS kernels can differ in
the last bit between CPU families), so the engine is a hand-built
fixed-point one, whose scores are rounded to its grid, and every
refresh build fails by injection: no EM fold ever runs, and drift
instead drives the backoff and breaker path.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.core.config import ChaosConfig, IcgmmConfig, ServingConfig
from repro.core.engine import FeatureScaler, GmmPolicyEngine
from repro.core.pipeline import StagedPipeline
from repro.gmm.model import GaussianMixture
from repro.gmm.quantized import QuantizedGmm
from repro.serving import IcgmmCacheService

PARTITION = 1 << 20
STREAM_LENGTH = 30_000
MEASURE_FROM = 157
#: Chunks replayed per case (the 1- and 31-access cases stop early);
#: also the fault plan's horizon, so every refresh build is planned.
MAX_CHUNKS = 400

#: (sharding, shards, shard-stall rate)
LAYOUTS = {
    "hash1": ("hash", 1, 0.0),
    "hash2": ("hash", 2, 0.0),
    "hash4": ("hash", 4, 0.0),
    "hash8": ("hash", 8, 0.0),
    "tenant2-stalls": ("tenant", 2, 0.3),
}

#: sha256 of each (layout, chunk size) replay, recorded at commit
#: 717c2e5, before distinct-row scoring and one-pass counting.
PINNED = {
    ("hash1", 1): (
        "0e0b3817beca8d605a5535a7d3c320d7abd8b6f544c61ff27b1abd81e2352f73"
    ),
    ("hash1", 31): (
        "202dd42a36c55222a803c51f5ca2c70a423b0a09a908b558accd14895ed5ea18"
    ),
    ("hash1", 4096): (
        "3928e8db6d29024440b3cee6392f4a2f6f73bb93a2fbc138b7f919350f060ca7"
    ),
    ("hash1", 12000): (
        "e43255434bc9c23072c4774e5d3f9645d32a85e4205a9a914811575ebd2c1296"
    ),
    ("hash2", 1): (
        "22f3d1a46daf0fbc62c20973520b9f4762006022135c0ae309b8e4c7b9eb23f5"
    ),
    ("hash2", 31): (
        "397c9b53d584598de30cfc1947c8e32ea0ffa7b7eaaa9127374c80a71f0a8c4b"
    ),
    ("hash2", 4096): (
        "e91c12bb4c2b0db8a8bfcd8cf9415c42e49154e7dc2e7322fde8928d2271df30"
    ),
    ("hash2", 12000): (
        "81e3a763f6c423a2054eff7684557fc0771e8c8b1726ad17ad7d69af1e49bd9d"
    ),
    ("hash4", 1): (
        "ffc9702944efbd7cdc11c72e8d25650ab5e3c7addd2b4bd410e307e706e7f4c7"
    ),
    ("hash4", 31): (
        "056ea8082601e173fd4e00a6d667ac853cdca6c21579861b8ab97b55b90e96b5"
    ),
    ("hash4", 4096): (
        "b63087ef3467297bed63a44fd93725f86e31012903cfc39ea109dfd2157334e8"
    ),
    ("hash4", 12000): (
        "fde91b208238217cc7404f96e39780aa3189d750a9d7e1ace5aba0c3c32d0e89"
    ),
    ("hash8", 1): (
        "2d4cdb716fbf2f11b6425a44518fe08274ce9381c4a55de2f3eb399d238a4f3d"
    ),
    ("hash8", 31): (
        "f308e592c1ebf8a475b67511380f6096ce11007273475729ac48be7c0a3d74bc"
    ),
    ("hash8", 4096): (
        "044c59cdfb6742d34e820a83b36d93b856211ff21ac3031e5e799b554a3a1073"
    ),
    ("hash8", 12000): (
        "adb0927eb871e15c7cfb04468ac63c33415a95b673e76371316a9593304a76cb"
    ),
    ("tenant2-stalls", 1): (
        "9de965645926cf01c779cdb76c6e254903fab3cf86565513f29a21681f78e9af"
    ),
    ("tenant2-stalls", 31): (
        "d0e9ce5e19de8ab9c348814a68e3f72dfd788bd9f258978c455840a453aaf96f"
    ),
    ("tenant2-stalls", 4096): (
        "3c057129bf52523d146aa4c6861cc03359deb73f7b20f4a3be2f3601d93ff5d9"
    ),
    ("tenant2-stalls", 12000): (
        "c6741211d038ff6ff6f1cb9651a069479e87b5b9b288cabd09021d69209d1514"
    ),
}


def _mix(values: np.ndarray) -> np.ndarray:
    """splitmix64's finaliser over uint64 (wraps mod 2**64).

    The stream is built from it rather than from a ``Generator``
    distribution, whose draws numpy does not promise to keep across
    releases.
    """
    values = (values ^ (values >> np.uint64(30))) * np.uint64(
        0xBF58476D1CE4E5B9
    )
    values = (values ^ (values >> np.uint64(27))) * np.uint64(
        0x94D049BB133111EB
    )
    return values ^ (values >> np.uint64(31))


def _draws(n: int, salt: int) -> np.ndarray:
    """``n`` pseudo-random uint64 values, one stream per ``salt``."""
    return _mix(np.arange(n, dtype=np.uint64) + np.uint64(salt << 40))


def hot_window_stream():
    """Two tenants; half the ``len_window`` windows are one hot page.

    The other windows draw pages skewed towards 0 (the product of two
    uniform draws below 2,000); 40 % of the windows belong to tenant
    1, one partition up, and 20 % of the accesses write.
    """
    window = IcgmmConfig().len_window
    n_windows = STREAM_LENGTH // window
    n = n_windows * window
    skewed = (_draws(n, 1) % 2_000) * (_draws(n, 2) % 2_000) // 2_000
    pages = skewed.astype(np.int64).reshape(n_windows, window)
    hot = (_draws(n_windows, 3) % 64).astype(np.int64)
    whole = _draws(n_windows, 4) % 2 == 0
    pages[whole] = hot[whole, None]
    pages[_draws(n_windows, 5) % 5 < 2] += PARTITION
    writes = _draws(n, 6) % 5 == 0
    return pages.reshape(-1), writes


def build_deployment():
    """A hand-built fixed-point engine plus the stream it serves.

    Two components per tenant, split along the timestamp axis; the
    admission threshold is the 30th percentile of the scores of the
    first 5,000 accesses.
    """
    config = IcgmmConfig()
    pages, writes = hot_window_stream()
    model = GaussianMixture(
        np.array([0.3, 0.2, 0.3, 0.2]),
        np.array([[-1.0, -1.5], [-1.0, 0.9], [1.0, -0.5], [1.0, 1.1]]),
        np.array(
            [
                [[0.02, 0.0], [0.0, 0.5]],
                [[0.05, 0.01], [0.01, 0.3]],
                [[0.02, 0.0], [0.0, 0.8]],
                [[0.04, -0.01], [-0.01, 0.4]],
            ]
        ),
    )
    scaler = FeatureScaler(
        mean=np.array([PARTITION / 2, 156.0]),
        std=np.array([PARTITION / 2, 90.0]),
    )
    engine = GmmPolicyEngine(
        model=model,
        scaler=scaler,
        admission_threshold=0.0,
        quantized=QuantizedGmm(model),
    )
    scores = engine.score(
        StagedPipeline(config).chunk_features(pages[:5_000], 0)
    )
    engine.admission_threshold = float(np.sort(scores)[1_500])
    return config, engine, pages, writes


@pytest.fixture(scope="module")
def deployment():
    return build_deployment()


def replay_digest(deployment, layout: str, chunk: int) -> str:
    config, engine, pages, writes = deployment
    sharding, n_shards, stall_rate = LAYOUTS[layout]
    serving = ServingConfig(
        chunk_requests=chunk,
        n_shards=n_shards,
        sharding=sharding,
        refresh_cooldown_chunks=2,
    )
    chaos = ChaosConfig(
        seed=5,
        horizon_chunks=MAX_CHUNKS,
        shard_stall_rate=stall_rate,
        shard_stall_attempts=3,
        refresh_fail_rate=1.0,
    )
    service = IcgmmCacheService(
        engine,
        config=config,
        serving=serving,
        measure_from=MEASURE_FROM,
        chaos=chaos,
    )
    digest = hashlib.sha256()
    stop = min(len(pages), chunk * MAX_CHUNKS)
    for start in range(0, stop, chunk):
        (report,) = service.ingest(
            pages[start : start + chunk], writes[start : start + chunk]
        )
        digest.update(repr(report).encode())
        digest.update(
            json.dumps(
                [
                    service.shard_metrics.snapshot(),
                    service.tenant_metrics.snapshot(),
                ],
                sort_keys=True,
            ).encode()
        )
    digest.update(
        json.dumps(service.summary(), sort_keys=True, default=repr).encode()
    )
    return digest.hexdigest()


@pytest.mark.parametrize("chunk", [1, 31, 4_096, 12_000])
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_serving_outputs_keep_their_digest(deployment, layout, chunk):
    assert replay_digest(deployment, layout, chunk) == PINNED[
        (layout, chunk)
    ]
