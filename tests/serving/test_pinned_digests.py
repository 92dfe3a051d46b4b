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

#: sha256 of each (layout, chunk size) replay.  First recorded at
#: commit 717c2e5, before distinct-row scoring and one-pass counting;
#: re-recorded at commit 64ffec5 with the chaos summary's
#: ``worker_retries`` entry (always 0 here, and gone with the
#: worker-crash channel) removed before hashing.
PINNED = {
    ("hash1", 1): (
        "06b27f6fab618fdbc031f13d2ce4254ebab55fde0ec623653099239076cac03c"
    ),
    ("hash1", 31): (
        "c4b844575ef1978f1c818ac4f4d70b00ce2bf20fec18a95bdb7ab6d247274bbe"
    ),
    ("hash1", 4096): (
        "a54437ff006c177bda0c908af428cb4050ae12dfd853814e7d838d95d22277c3"
    ),
    ("hash1", 12000): (
        "831a044833d39cad55b134cb2dbb3de3113458aae056d385fe1a4f9355b63e5f"
    ),
    ("hash2", 1): (
        "96a0981c762c967998e947a553e364ce8749a1414ff78cdbba1b68e5cebb9e69"
    ),
    ("hash2", 31): (
        "88617ff84752995dea0e9e31f49d6b577000b360914ff06cebcac9543a48dc76"
    ),
    ("hash2", 4096): (
        "f5cfdeff0c5cb72ef77888cb97a7d29b0ba7353d0324b593f21624f28e516ab1"
    ),
    ("hash2", 12000): (
        "ffd3d6b0bc58550fc893df73d3048852671055f565be22b134da24d0f86bf708"
    ),
    ("hash4", 1): (
        "f6d0fa9e26ac8c52d013805d17c134bb3d9661bf6bf4901c6cce20f113d3791a"
    ),
    ("hash4", 31): (
        "c9e93937052a4bfc03e6d8ef5eda9eae8f66a5e22db3b55bae1c1111240b183a"
    ),
    ("hash4", 4096): (
        "9f706e68ed6f46f903a9e18cd93eda39322ab65bd939aeda1a0aa9a63332b9b5"
    ),
    ("hash4", 12000): (
        "cf2cd0b4d5a2c2e30e8cafcfca1b5c2f86fa8a161a2141f1245646dd3e43ce29"
    ),
    ("hash8", 1): (
        "dba70e1fced6fa9fb3906cc51ba51b1cb59052ea6f18a74e8eb867a62f59aa7d"
    ),
    ("hash8", 31): (
        "e525ba9af23799c2ded5850ea3f66ba23a4e1706cebcb5e77c7a01a82c91c40d"
    ),
    ("hash8", 4096): (
        "0323d972ace66e95689461e198c3c4e6cde6493f295440d417957591e93a9ab0"
    ),
    ("hash8", 12000): (
        "f204405177ff662f59490add97f06f5f97e69717f5518df1bc913b0f363f2768"
    ),
    ("tenant2-stalls", 1): (
        "9966a11e35ad8b9ecf6bcbb90883c53b8d7cdf8c6fbbfe1b02542d5bcc597fd5"
    ),
    ("tenant2-stalls", 31): (
        "af9253e8ec20c83bd2d6a82236d3b58489d90e70a5570a06c7ce62a25db642d5"
    ),
    ("tenant2-stalls", 4096): (
        "08fa9fcdd9569d2c9afafeceb715a8b2739511b5a54a075d5b117404d330ddda"
    ),
    ("tenant2-stalls", 12000): (
        "b2e2cc5f4473daa1bb7f186a8ec03516886bdb8a8a803cfe709749036c4fa3f8"
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
