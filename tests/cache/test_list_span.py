"""Property test: the exact list span against the reference span.

:func:`repro.cache.simulate_fast._list_span` replays a span of
accesses over plain-list mirrors of the touched set rows, with the policy
hooks inlined from the policy's ``ListSpan`` declaration.  Contract:
from the same pre-warmed cache (invalid ways, dirty bits, non-zero
meta and stamps) it leaves *bit identical* counters, outcome codes and
cache planes to :func:`repro.cache.setassoc._scalar_span` driving the
policy's own hooks -- for every declaring policy (LRU, the score
policy in each admission/eviction/update mode, the combined policy
with a partial page map), on tie-heavy scores that include the
threshold itself, signed zeros, infinities and NaN.
"""

import copy

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.policies import LruPolicy, ScoreBasedPolicy
from repro.cache.policies.kernels import list_span_for
from repro.cache.setassoc import (
    CacheGeometry,
    SetAssociativeCache,
    _scalar_span,
    simulate,
)
from repro.cache.simulate_fast import _list_span
from repro.cache.stats import CacheStats
from repro.core.policy import CombinedIcgmmPolicy

THRESHOLDS = (0.0, 0.5)

#: Scores that tie often and hit every comparison edge: both
#: thresholds, signed zeros, infinities and NaN.
SCORES = (
    0.0, -0.0, 0.5, 0.25, 1.0, -1.0,
    float("inf"), float("-inf"), float("nan"),
)

#: (admission, eviction) pairs a score policy accepts.
SCORE_MODES = ((True, True), (True, False), (False, True))


def _policy(kind, threshold, mode, update_on_hit, page_scores):
    if kind == "lru":
        return LruPolicy()
    if kind == "combined":
        policy = CombinedIcgmmPolicy(threshold, page_scores)
        policy.update_score_on_hit = update_on_hit
        return policy
    admission, eviction = mode
    return ScoreBasedPolicy(
        threshold=threshold,
        admission=admission,
        eviction=eviction,
        update_score_on_hit=update_on_hit,
    )


def _exactly(elements, size):
    return st.lists(elements, min_size=size, max_size=size)


@st.composite
def span_cases(draw):
    n_sets = draw(st.sampled_from((1, 2, 3, 16, 64, 128, 512)))
    ways = draw(st.sampled_from((1, 2, 8)))
    universe = draw(st.integers(1, 3 * n_sets * ways))
    pages = st.integers(0, universe - 1)
    scores = st.sampled_from(SCORES)
    kind = draw(st.sampled_from(("lru", "score", "combined")))
    mapped = draw(st.lists(pages, max_size=universe, unique=True))
    warm = draw(st.integers(0, 2 * n_sets * ways))
    n = draw(st.integers(1, 120))
    gaps = draw(_exactly(st.integers(1, 3), n))
    offset = warm + draw(st.integers(0, 5))
    idx = offset + np.cumsum(gaps) - gaps[0]
    return dict(
        geometry=CacheGeometry(
            capacity_bytes=n_sets * ways,
            block_bytes=1,
            associativity=ways,
        ),
        policy=_policy(
            kind,
            draw(st.sampled_from(THRESHOLDS)),
            draw(st.sampled_from(SCORE_MODES)),
            draw(st.booleans()),
            {page: draw(scores) for page in mapped},
        ),
        warm_pages=draw(_exactly(pages, warm)),
        warm_writes=draw(_exactly(st.booleans(), warm)),
        warm_scores=draw(_exactly(scores, warm)),
        pages=draw(_exactly(pages, n)),
        writes=draw(_exactly(st.booleans(), n)),
        scores=draw(_exactly(scores, n)),
        idx=idx,
        measure_from=draw(st.integers(offset, int(idx[-1]) + 1)),
        outcome_base=offset - draw(st.integers(0, 3)),
        record=draw(st.booleans()),
    )


def _warmed(case):
    cache = SetAssociativeCache(case["geometry"])
    simulate(
        cache,
        case["policy"],
        np.asarray(case["warm_pages"], dtype=np.int64),
        np.asarray(case["warm_writes"], dtype=bool),
        np.asarray(case["warm_scores"], dtype=np.float64),
    )
    return cache


def _outcome(case):
    if not case["record"]:
        return None
    size = int(case["idx"][-1]) - case["outcome_base"] + 1
    return np.full(size, 255, dtype=np.uint8)


class TestListSpanMatchesScalarSpan:
    @settings(max_examples=200, deadline=None)
    @given(case=span_cases())
    def test_property_bit_identical(self, case):
        warmed = _warmed(case)
        ref_cache = copy.deepcopy(warmed)
        ref_policy = copy.deepcopy(case["policy"])
        ref_stats = CacheStats()
        ref_outcome = _outcome(case)
        _scalar_span(
            ref_cache,
            ref_policy,
            ref_cache.tags.tolist(),
            list(case["pages"]),
            list(case["writes"]),
            list(case["scores"]),
            case["idx"].tolist(),
            case["measure_from"],
            ref_stats,
            outcome=ref_outcome,
            outcome_base=case["outcome_base"],
        )

        cache = copy.deepcopy(warmed)
        policy = copy.deepcopy(case["policy"])
        spec = list_span_for(policy)
        assert spec is not None
        stats = CacheStats()
        outcome = _outcome(case)
        pages = np.asarray(case["pages"], dtype=np.int64)
        _list_span(
            cache,
            spec,
            stats,
            pages,
            pages % case["geometry"].n_sets,
            np.asarray(case["writes"], dtype=bool),
            np.asarray(case["scores"], dtype=np.float64),
            case["idx"],
            case["measure_from"],
            outcome,
            case["outcome_base"],
        )

        assert stats == ref_stats
        if case["record"]:
            np.testing.assert_array_equal(outcome, ref_outcome)
        np.testing.assert_array_equal(cache.tags, ref_cache.tags)
        np.testing.assert_array_equal(cache.dirty, ref_cache.dirty)
        for plane in ("meta", "stamp"):
            np.testing.assert_array_equal(
                getattr(cache, plane).view(np.int64),
                getattr(ref_cache, plane).view(np.int64),
                err_msg=plane,
            )
