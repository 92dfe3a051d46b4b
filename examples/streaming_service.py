"""Scenario: running ICGMM as a long-lived streaming cache service.

The paper's pipeline is one-shot: collect a trace, train the GMM,
freeze it in the FPGA weight buffer, evaluate.  A production CXL
memory-expansion device instead faces an *endless* request stream
whose distribution drifts -- after a failover, a rebuilt key-value
store serves a different slab region, and a frozen density model
now scores the new hot pages as cold, bypassing and evicting exactly
the traffic that matters.

This walkthrough drives the repository's serving subsystem
(:mod:`repro.serving`) through such an event and watches it react:

1. an offline engine is trained on pre-drift traffic (what the paper
   ships),
2. the stream is replayed in chunks through the sharded
   :class:`repro.serving.IcgmmCacheService`,
3. at the drift point the score-distribution detector fires, recent
   chunks are folded into the mixture by warm-started EM, and the
   refreshed engine is swapped in atomically (the software analogue
   of a weight-buffer reload),
4. post-drift miss rates are compared against the frozen deployment
   and an oracle retrained on the drifted distribution.

Run with::

    python examples/streaming_service.py
"""

import numpy as np

from repro.analysis import render_table
from repro.cache.setassoc import CacheGeometry
from repro.core.config import GmmEngineConfig, IcgmmConfig, ServingConfig
from repro.core.engine import GmmPolicyEngine
from repro.serving import IcgmmCacheService
from repro.traces.preprocess import transform_timestamps
from repro.traces.synthetic import ZipfSampler

N_PHASE = 30_000
HOT_PAGES = 1_500
GMM = GmmEngineConfig(n_components=8, max_iter=20, max_train_samples=8_000)


def build_two_phase_stream(rng):
    """Hot slab at pages [0, 1500) -- then a failover moves it."""
    phase_a = ZipfSampler(
        base_page=0, n_pages=HOT_PAGES, alpha=1.2, write_fraction=0.2
    )
    phase_b = ZipfSampler(
        base_page=6_000, n_pages=HOT_PAGES, alpha=1.2, write_fraction=0.2
    )
    pages_a, writes_a = phase_a.sample(N_PHASE, rng)
    pages_b, writes_b = phase_b.sample(N_PHASE, rng)
    return (
        np.concatenate([pages_a, pages_b]),
        np.concatenate([writes_a, writes_b]),
    )


def train(pages, lo, hi, seed):
    """Offline-train an engine on the slice ``[lo, hi)``."""
    timestamps = transform_timestamps(hi - lo, mode="prose")
    features = np.column_stack(
        [pages[lo:hi].astype(float), timestamps.astype(float)]
    )
    return GmmPolicyEngine.train(
        features, GMM, np.random.default_rng(seed)
    )


def replay(engine, config, pages, writes, refresh, measure_from):
    """Stream the whole trace through a fresh service instance."""
    serving = ServingConfig(
        chunk_requests=4_096,
        n_shards=4,
        sharding="hash",
        strategy="gmm-caching-eviction",
        refresh_enabled=refresh,
        refresh_cooldown_chunks=2,
    )
    service = IcgmmCacheService(
        engine, config=config, serving=serving, measure_from=measure_from
    )
    service.ingest(pages, writes)
    return service


def main() -> None:
    rng = np.random.default_rng(0)
    pages, writes = build_two_phase_stream(rng)
    config = IcgmmConfig(
        geometry=CacheGeometry(
            capacity_bytes=64 * 8 * 4096, block_bytes=4096, associativity=8
        ),
        gmm=GMM,
    )
    # Post-drift steady state: skip the detection/refresh transient.
    measure_from = N_PHASE + int(0.4 * N_PHASE)

    print("Training the offline engine on pre-drift traffic...")
    frozen_engine = train(pages, 0, N_PHASE // 2, seed=1)
    print("Retraining the oracle on post-drift traffic...")
    oracle_engine = train(pages, N_PHASE, N_PHASE + N_PHASE // 2, seed=1)

    print("Replaying the stream through three deployments...\n")
    frozen = replay(
        frozen_engine, config, pages, writes, False, measure_from
    )
    online = replay(
        frozen_engine, config, pages, writes, True, measure_from
    )
    oracle = replay(
        oracle_engine, config, pages, writes, False, measure_from
    )

    for event in online.swaps:
        print(
            f"  engine swap at chunk {event.chunk_index}"
            f" (access {event.access_cursor:,}):"
            f" generation {event.generation},"
            f" new admission threshold {event.threshold:.4g}"
        )

    rows = [
        ["frozen offline", 100 * frozen.totals.miss_rate],
        ["online (drift-aware refresh)", 100 * online.totals.miss_rate],
        ["retrained oracle", 100 * oracle.totals.miss_rate],
    ]
    print()
    print(
        render_table(
            ["deployment", "post-drift miss rate %"],
            rows,
            float_format="{:.2f}",
        )
    )
    gap = frozen.totals.miss_rate - oracle.totals.miss_rate
    recovered = (
        (frozen.totals.miss_rate - online.totals.miss_rate) / gap
        if gap > 0
        else 1.0
    )
    print(
        f"\nThe online service recovers {100 * recovered:.0f}% of the"
        " miss-rate gap the frozen engine opens under drift, using"
        f" {len(online.swaps)} weight-buffer refresh(es) and no"
        " offline retraining."
    )


if __name__ == "__main__":
    main()
