"""Extension: stride prefetching under the GMM-managed cache.

The GMM can only *pin a fraction* of a sequential sweep (eviction) or
refuse it (admission); it cannot remove the sweep's compulsory-style
misses.  A stride prefetcher is the orthogonal tool for exactly that
traffic.  This bench runs stream -- the paper's most LRU-hostile
workload -- under LRU, GMM eviction, and GMM eviction + prefetch,
showing the two mechanisms compose.
"""

import numpy as np
import pytest

from repro.analysis import render_table
from repro.cache import SetAssociativeCache, simulate_fast
from repro.cache.policies import GmmCachePolicy, LruPolicy
from repro.cache.prefetch import (
    StridePrefetcher,
    simulate_with_prefetch_fast,
)
from repro.core.pipeline import StagedPipeline


@pytest.fixture(scope="module")
def stream_setup(fast_config):
    config = fast_config(trace_length=150_000)
    pipeline = StagedPipeline(config)
    prepared = pipeline.prepare("stream")
    return config, prepared


def test_prefetch_composes_with_gmm(stream_setup, report, benchmark):
    """LRU vs GMM vs GMM + stride prefetch on stream."""
    config, prepared = stream_setup
    pages = prepared.page_indices
    writes = prepared.is_write

    lru = simulate_fast(
        SetAssociativeCache(config.geometry),
        LruPolicy(),
        pages,
        writes,
        warmup_fraction=config.warmup_fraction,
    )
    gmm = simulate_fast(
        SetAssociativeCache(config.geometry),
        GmmCachePolicy(admission=False, eviction=True),
        pages,
        writes,
        scores=prepared.page_frequency_scores,
        warmup_fraction=config.warmup_fraction,
    )

    def run_prefetch():
        # The vectorized prefetch path (bit-identical to the scalar
        # reference; parity asserted in tests/cache).
        return simulate_with_prefetch_fast(
            SetAssociativeCache(config.geometry),
            GmmCachePolicy(admission=False, eviction=True),
            StridePrefetcher(degree=2, distance=8),
            pages,
            writes,
            scores=prepared.page_frequency_scores,
            warmup_fraction=config.warmup_fraction,
        )

    combined, prefetch_stats = benchmark.pedantic(
        run_prefetch, rounds=1, iterations=1
    )
    report(
        "extension_prefetch",
        render_table(
            ["configuration", "miss rate %"],
            [
                ["lru", 100 * lru.miss_rate],
                ["gmm eviction", 100 * gmm.miss_rate],
                ["gmm eviction + prefetch", 100 * combined.miss_rate],
            ],
        )
        + f"\nprefetch accuracy: {prefetch_stats.accuracy:.1%}"
        f" ({prefetch_stats.issued} issued)",
    )

    # The mechanisms compose: prefetching removes sweep misses the
    # GMM cannot, on top of the GMM's pinning gain.
    assert gmm.miss_rate < lru.miss_rate
    assert combined.miss_rate < gmm.miss_rate - 0.02
    # Sequential sweeps make stride prefetch highly accurate.
    assert prefetch_stats.accuracy > 0.5
