"""Tests for per-access outcome recording and resumable simulation.

Two properties underpin the serving loop's accounting:

* **Outcome completeness** -- every access receives exactly one
  ``OUTCOME_*`` code, and :func:`stats_from_outcomes` over any
  measured mask reproduces the simulator's own counters (so one
  simulation pass can be sliced per tenant / per phase exactly).
* **Resumability** -- replaying a stream in chunks with
  ``index_offset`` against the same cache produces bit-identical
  outcomes, counters and final state to a single-shot run.
"""

import numpy as np
import pytest

from repro.cache.policies import (
    ClockPolicy,
    GmmCachePolicy,
    LruPolicy,
    RandomPolicy,
)
from repro.cache.setassoc import (
    CacheGeometry,
    SetAssociativeCache,
    simulate,
)
from repro.cache.simulate_fast import simulate_fast
from repro.cache.stats import (
    OUTCOME_BYPASS,
    OUTCOME_DIRTY_EVICT,
    OUTCOME_EVICT,
    OUTCOME_FILL,
    OUTCOME_HIT,
    CacheStats,
    stats_from_outcomes,
)

POLICIES = [
    ("lru", lambda: LruPolicy()),
    ("gmm", lambda: GmmCachePolicy(threshold=0.2)),
    # Replayed with fill scores apart from the request scores
    # (:func:`_fills`).
    ("combined", lambda: GmmCachePolicy(threshold=0.2)),
    # Reference-loop policies must record outcomes too.
    ("clock", lambda: ClockPolicy()),
    ("random", lambda: RandomPolicy(np.random.default_rng(7))),
]

#: Fill score of every third page under the "combined" replay; the
#: rest store their request score.
PAGE_FILLS = {page: (page % 31) / 31.0 for page in range(0, 600, 3)}


def _fills(name, pages, scores):
    """Per-access fill scores of a :data:`POLICIES` entry (``None``:
    fills store the request score)."""
    if name != "combined":
        return None
    return np.array(
        [
            PAGE_FILLS.get(page, score)
            for page, score in zip(pages.tolist(), scores.tolist())
        ]
    )


def _geometry(n_sets=32, ways=4):
    return CacheGeometry(
        capacity_bytes=n_sets * ways * 4096,
        block_bytes=4096,
        associativity=ways,
    )


def _trace(n=15000, universe=600, seed=5):
    rng = np.random.default_rng(seed)
    return (
        rng.integers(0, universe, n),
        rng.random(n) < 0.3,
        rng.standard_normal(n),
    )


class TestOutcomeReconstruction:
    @pytest.mark.parametrize(
        "name,make", POLICIES, ids=[n for n, _ in POLICIES]
    )
    def test_outcomes_reproduce_counters(self, name, make):
        pages, writes, scores = _trace()
        warmup = 0.3
        cache = SetAssociativeCache(_geometry())
        outcome = np.empty(pages.shape[0], dtype=np.uint8)
        stats = simulate_fast(
            cache, make(), pages, writes, scores=scores,
            warmup_fraction=warmup, outcome=outcome,
            fill_scores=_fills(name, pages, scores),
        )
        measured = np.arange(pages.shape[0]) >= int(
            pages.shape[0] * warmup
        )
        assert stats_from_outcomes(outcome, writes, measured) == stats

    @pytest.mark.parametrize(
        "name,make", POLICIES, ids=[n for n, _ in POLICIES]
    )
    def test_reference_and_fast_record_identically(self, name, make):
        pages, writes, scores = _trace(n=8000)
        fills = _fills(name, pages, scores)
        ref_out = np.empty(pages.shape[0], dtype=np.uint8)
        fast_out = np.empty(pages.shape[0], dtype=np.uint8)
        simulate(
            SetAssociativeCache(_geometry()), make(), pages, writes,
            scores=scores, outcome=ref_out, fill_scores=fills,
        )
        simulate_fast(
            SetAssociativeCache(_geometry()), make(), pages, writes,
            scores=scores, outcome=fast_out, fill_scores=fills,
        )
        np.testing.assert_array_equal(ref_out, fast_out)

    def test_partition_sums_to_whole(self):
        """Any partition of the stream sums back to the totals."""
        pages, writes, scores = _trace()
        outcome = np.empty(pages.shape[0], dtype=np.uint8)
        stats = simulate_fast(
            SetAssociativeCache(_geometry()),
            GmmCachePolicy(threshold=0.2),
            pages, writes, scores=scores, outcome=outcome,
        )
        groups = pages % 3
        merged = CacheStats()
        for g in range(3):
            merged = merged.merge(
                stats_from_outcomes(
                    outcome[groups == g], writes[groups == g]
                )
            )
        assert merged == stats

    def test_outcome_codes_are_disjoint_and_complete(self):
        pages, writes, scores = _trace(n=6000, universe=5000)
        outcome = np.full(pages.shape[0], 255, dtype=np.uint8)
        simulate_fast(
            SetAssociativeCache(_geometry(n_sets=8)),
            GmmCachePolicy(threshold=0.5),
            pages, writes, scores=scores, outcome=outcome,
        )
        valid = {
            OUTCOME_FILL, OUTCOME_HIT, OUTCOME_BYPASS,
            OUTCOME_EVICT, OUTCOME_DIRTY_EVICT,
        }
        assert set(np.unique(outcome).tolist()) <= valid
        assert 255 not in outcome  # every access was coded

    def test_validation(self):
        pages, writes, _ = _trace(n=100)
        cache = SetAssociativeCache(_geometry())
        with pytest.raises(ValueError, match="uint8"):
            simulate_fast(
                cache, LruPolicy(), pages, writes,
                outcome=np.empty(100, dtype=np.int64),
            )
        with pytest.raises(ValueError, match="same shape"):
            simulate_fast(
                cache, LruPolicy(), pages, writes,
                outcome=np.empty(99, dtype=np.uint8),
            )
        with pytest.raises(ValueError, match="index_offset"):
            simulate_fast(
                cache, LruPolicy(), pages, writes, index_offset=-1
            )
        with pytest.raises(ValueError, match="same shape"):
            stats_from_outcomes(
                np.zeros(3, dtype=np.uint8), np.zeros(2, dtype=bool)
            )


class TestResumableChunks:
    @pytest.mark.parametrize(
        "name,make", POLICIES, ids=[n for n, _ in POLICIES]
    )
    def test_chunked_replay_is_exact(self, name, make):
        pages, writes, scores = _trace()
        fills = _fills(name, pages, scores)
        single_cache = SetAssociativeCache(_geometry())
        single_out = np.empty(pages.shape[0], dtype=np.uint8)
        single = simulate_fast(
            single_cache, make(), pages, writes, scores=scores,
            outcome=single_out, fill_scores=fills,
        )
        chunk_cache = SetAssociativeCache(_geometry())
        chunk_out = np.empty(pages.shape[0], dtype=np.uint8)
        policy = make()
        merged = CacheStats()
        for start in range(0, pages.shape[0], 3001):
            stop = min(start + 3001, pages.shape[0])
            merged = merged.merge(
                simulate_fast(
                    chunk_cache, policy,
                    pages[start:stop], writes[start:stop],
                    scores=scores[start:stop],
                    index_offset=start,
                    outcome=chunk_out[start:stop],
                    fill_scores=(
                        None if fills is None else fills[start:stop]
                    ),
                )
            )
        assert merged == single
        np.testing.assert_array_equal(single_out, chunk_out)
        np.testing.assert_array_equal(
            single_cache.tags, chunk_cache.tags
        )
        np.testing.assert_array_equal(
            single_cache.dirty, chunk_cache.dirty
        )
        np.testing.assert_array_equal(
            single_cache.meta, chunk_cache.meta
        )
        np.testing.assert_array_equal(
            single_cache.stamp, chunk_cache.stamp
        )

    def test_offset_preserves_recency_order_across_chunks(self):
        """Without index_offset, stamps restart per chunk and LRU
        order breaks; with it, chunked equals single-shot."""
        pages = np.array([0, 32, 64, 0, 32, 64, 96] * 40)
        writes = np.zeros(pages.shape[0], dtype=bool)
        geometry = _geometry(n_sets=32, ways=2)
        single_cache = SetAssociativeCache(geometry)
        single = simulate_fast(
            single_cache, LruPolicy(), pages, writes
        )
        good_cache = SetAssociativeCache(geometry)
        policy = LruPolicy()
        merged = CacheStats()
        for start in range(0, pages.shape[0], 7):
            stop = min(start + 7, pages.shape[0])
            merged = merged.merge(
                simulate_fast(
                    good_cache, policy, pages[start:stop],
                    writes[start:stop], index_offset=start,
                )
            )
        assert merged == single
        np.testing.assert_array_equal(
            single_cache.stamp, good_cache.stamp
        )

    def test_reference_path_offset(self):
        """simulate() honours index_offset identically."""
        pages, writes, scores = _trace(n=4000)
        fast_cache = SetAssociativeCache(_geometry())
        ref_cache = SetAssociativeCache(_geometry())
        fast_policy, ref_policy = LruPolicy(), LruPolicy()
        for start in range(0, 4000, 1333):
            stop = min(start + 1333, 4000)
            fast = simulate_fast(
                fast_cache, fast_policy, pages[start:stop],
                writes[start:stop], scores=scores[start:stop],
                index_offset=start,
            )
            ref = simulate(
                ref_cache, ref_policy, pages[start:stop],
                writes[start:stop], scores=scores[start:stop],
                index_offset=start,
            )
            assert fast == ref
        np.testing.assert_array_equal(
            fast_cache.stamp, ref_cache.stamp
        )
