"""Property test: the two simulators agree on cache behaviour.

The fast statistical simulator (:func:`repro.cache.setassoc.simulate`)
and the cycle-level dataflow (:mod:`repro.desim`) run the same
per-access step (:func:`repro.cache.setassoc.access_step`) but count
differently: the reference loop tallies its counters access by
access, while the dataflow kernel wraps each step in FIFO and delay
timing and its counters are rebuilt from the outcome codes.  On any
request stream they must produce identical hit/miss/eviction
counters -- a cross-check of the kernel's request bookkeeping and of
the code-to-counter rebuild.  The step's control flow itself is
checked against the independent list loop
(``tests/cache/test_list_span.py``) and the scalar device walk of
:class:`~repro.cxl.router.CxlSystem` (``tests/cxl``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.policies import (
    FifoPolicy,
    GmmCachePolicy,
    LfuPolicy,
    LruPolicy,
    SlruPolicy,
)
from repro.cache.setassoc import (
    CacheGeometry,
    SetAssociativeCache,
    simulate,
)
from repro.desim.dataflow import IcgmmDataflow


def _cache():
    return SetAssociativeCache(
        CacheGeometry(
            capacity_bytes=4 * 4 * 4096, block_bytes=4096, associativity=4
        )
    )


def _compare(pages, writes, scores, make_policy):
    fast_stats = simulate(
        _cache(), make_policy(), pages, writes, scores=scores
    )
    slow = IcgmmDataflow(cache=_cache(), policy=make_policy())
    slow_result = slow.run(pages, writes, scores)
    for field in (
        "hits",
        "misses",
        "bypasses",
        "bypassed_writes",
        "fills",
        "evictions",
        "dirty_evictions",
        "write_hits",
        "write_misses",
    ):
        assert getattr(fast_stats, field) == getattr(
            slow_result.stats, field
        ), field


POLICY_FACTORIES = {
    "lru": LruPolicy,
    "fifo": FifoPolicy,
    "lfu": LfuPolicy,
    "slru": SlruPolicy,
    "gmm": lambda: GmmCachePolicy(threshold=0.5),
}


@pytest.mark.parametrize("policy_name", sorted(POLICY_FACTORIES))
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_simulators_agree(policy_name, seed):
    rng = np.random.default_rng(seed)
    n = 300
    pages = rng.integers(0, 40, size=n)
    writes = rng.random(n) < 0.3
    scores = rng.random(n)
    _compare(pages, writes, scores, POLICY_FACTORIES[policy_name])
