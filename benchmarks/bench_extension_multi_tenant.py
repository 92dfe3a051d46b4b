"""Extension: multi-tenant consolidation on one CXL device.

Beyond the paper's single-tenant evaluation: a shared memory-expansion
device serves a latency-sensitive key-value tenant (memtier) alongside
a streaming tenant (stream) hammering the same DRAM cache.  Under LRU
the streaming tenant's sweeps evict the key-value tenant's hot set --
classic noisy-neighbour interference.  The GMM's density scores rank
pages by *global* frequency, so score eviction automatically
prioritises the hot tenant, no partitioning hardware needed.

Measured trade-off (recorded in the report): the key-value tenant's
miss rate roughly halves, at the cost of the streaming tenant's
pinned-subset hits -- its loop pages are now the globally coldest and
always lose the eviction contest.  For a latency-SLO tenant sharing
with a bandwidth-bound batch tenant that is exactly the desired
behaviour; a deployment wanting fairness instead would partition the
score comparison per tenant (future work the bench makes visible).
"""

import numpy as np
import pytest

from repro.analysis import render_table
from repro.cache import SetAssociativeCache, simulate
from repro.cache.policies import GmmCachePolicy, LruPolicy
from repro.core.engine import GmmPolicyEngine
from repro.traces import TracePreprocessor, multi_tenant_trace
from repro.traces.workloads import get_workload

#: Tenant partition stride in pages.
PARTITION = 1 << 20


@pytest.fixture(scope="module")
def consolidated(fast_config):
    config = fast_config()
    rng = np.random.default_rng(config.seed)
    trace = multi_tenant_trace(
        [
            get_workload("memtier", scale=1 / 32),
            get_workload("stream", scale=1 / 32),
        ],
        weights=[0.6, 0.4],
        n_accesses=200_000,
        rng=rng,
        partition_pages=PARTITION,
    )
    processor = TracePreprocessor()
    processed = processor.process(trace)
    return config, processed


def test_gmm_isolates_tenants(consolidated, report, benchmark):
    """Per-tenant miss rates, LRU vs GMM, on the shared cache."""
    config, processed = consolidated
    pages = processed.page_indices
    writes = processed.trace.is_write
    tenant = pages // PARTITION  # 0 = memtier, 1 = stream

    def run():
        rng = np.random.default_rng(1)
        engine = GmmPolicyEngine.train(
            processed.features[: len(processed) // 2],
            config.gmm,
            rng,
        )
        page_scores = engine.page_scores(pages)
        out = {}
        for label, policy, scores in (
            ("lru", LruPolicy(), None),
            (
                "gmm",
                GmmCachePolicy(admission=False, eviction=True),
                page_scores,
            ),
        ):
            cache = SetAssociativeCache(config.geometry)
            # Per-tenant accounting needs a manual measured loop:
            # reuse the simulator per tenant via masks after one run
            # is impossible, so run once and count misses per tenant
            # with the device-style loop.
            from repro.cxl.device import CxlMemoryDevice

            device = CxlMemoryDevice(cache, policy)
            tenant_misses = [0, 0]
            tenant_counts = [0, 0]
            measure_from = int(len(pages) * config.warmup_fraction)
            score_list = (
                scores
                if scores is not None
                else np.zeros(len(pages))
            )
            for i in range(len(pages)):
                result = device.access(
                    int(pages[i]), bool(writes[i]), float(score_list[i])
                )
                if i >= measure_from:
                    t = int(tenant[i])
                    tenant_counts[t] += 1
                    tenant_misses[t] += 0 if result.hit else 1
            out[label] = (
                100 * tenant_misses[0] / tenant_counts[0],
                100 * tenant_misses[1] / tenant_counts[1],
            )
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        ["lru", results["lru"][0], results["lru"][1]],
        ["gmm", results["gmm"][0], results["gmm"][1]],
    ]
    report(
        "extension_multi_tenant",
        render_table(
            ["policy", "memtier tenant miss %", "stream tenant miss %"],
            rows,
        ),
    )
    # The latency-sensitive tenant must be strongly protected.
    assert results["gmm"][0] < results["lru"][0] - 1.0
    # The documented trade-off: the streaming tenant pays, but stays
    # within its stand-alone band (its misses are bandwidth-bound
    # sweeps that any policy mostly cannot save at this pressure).
    assert results["gmm"][1] < 60.0
