"""Tests for cache statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.stats import (
    N_OUTCOMES,
    OUTCOME_BYPASS,
    OUTCOME_DIRTY_EVICT,
    OUTCOME_EVICT,
    OUTCOME_HIT,
    CacheStats,
    outcome_counts,
    stats_from_counts,
    stats_from_outcomes,
)


class TestDerivedRates:
    def test_miss_rate(self):
        stats = CacheStats(hits=75, misses=25)
        assert stats.miss_rate == 0.25
        assert stats.hit_rate == 0.75
        assert stats.accesses == 100

    def test_empty_run_rates_are_zero(self):
        stats = CacheStats()
        assert stats.miss_rate == 0.0
        assert stats.hit_rate == 0.0
        assert stats.bypass_rate == 0.0
        assert stats.dirty_eviction_rate == 0.0

    def test_bypass_rate(self):
        stats = CacheStats(hits=0, misses=10, bypasses=4)
        assert stats.bypass_rate == 0.4

    def test_dirty_eviction_rate(self):
        stats = CacheStats(misses=20, evictions=10, dirty_evictions=5)
        assert stats.dirty_eviction_rate == 0.25


class TestMerge:
    def test_merge_sums_counters(self):
        a = CacheStats(hits=1, misses=2, bypasses=1, fills=1,
                       evictions=1, dirty_evictions=1, write_hits=1,
                       write_misses=1)
        b = CacheStats(hits=10, misses=20, bypasses=10, fills=10,
                       evictions=10, dirty_evictions=10, write_hits=10,
                       write_misses=10)
        merged = a.merge(b)
        assert merged.hits == 11
        assert merged.misses == 22
        assert merged.accesses == 33
        assert merged.dirty_evictions == 11

    def test_merge_does_not_mutate(self):
        a = CacheStats(hits=1)
        b = CacheStats(hits=2)
        a.merge(b)
        assert a.hits == 1
        assert b.hits == 2


class TestAsDict:
    def test_contains_counters_and_rates(self):
        stats = CacheStats(hits=3, misses=1)
        payload = stats.as_dict()
        assert payload["hits"] == 3
        assert payload["miss_rate"] == pytest.approx(0.25)
        assert set(payload) >= {
            "hits",
            "misses",
            "bypasses",
            "fills",
            "evictions",
            "dirty_evictions",
            "miss_rate",
            "hit_rate",
        }


def _masked_stats(outcomes, is_write, mask):
    """Per-mask counters, one code at a time (the oracle)."""
    outcomes, is_write = outcomes[mask], is_write[mask]
    hit = outcomes == OUTCOME_HIT
    bypass = outcomes == OUTCOME_BYPASS
    dirty = outcomes == OUTCOME_DIRTY_EVICT
    misses = int(outcomes.size - hit.sum())
    return CacheStats(
        hits=int(hit.sum()),
        misses=misses,
        bypasses=int(bypass.sum()),
        bypassed_writes=int((bypass & is_write).sum()),
        fills=misses - int(bypass.sum()),
        evictions=int((outcomes == OUTCOME_EVICT).sum() + dirty.sum()),
        dirty_evictions=int(dirty.sum()),
        write_hits=int((hit & is_write).sum()),
        write_misses=int((~hit & is_write).sum()),
    )


class TestOutcomeCounts:
    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(0, 200),
        n_labels=st.integers(1, 9),
    )
    def test_each_label_counts_its_own_accesses(self, data, n, n_labels):
        codes = st.sampled_from(range(N_OUTCOMES))
        outcomes = np.array(
            data.draw(st.lists(codes, min_size=n, max_size=n)),
            dtype=np.uint8,
        )
        is_write = np.array(
            data.draw(st.lists(st.booleans(), min_size=n, max_size=n)),
            dtype=bool,
        )
        # Labels drawn from a prefix of the range, so some have no
        # accesses at all.
        used = data.draw(st.integers(1, n_labels))
        labels = np.array(
            data.draw(
                st.lists(st.integers(0, used - 1), min_size=n, max_size=n)
            ),
            dtype=np.int64,
        )
        counts = outcome_counts(
            outcomes, is_write, labels=labels, n_labels=n_labels
        )
        assert counts.shape == (n_labels, N_OUTCOMES, 2)
        for label in range(n_labels):
            mask = labels == label
            expected = _masked_stats(outcomes, is_write, mask)
            assert stats_from_counts(counts[label]) == expected
            assert stats_from_outcomes(outcomes, is_write, mask) == expected
        assert stats_from_counts(counts.sum(axis=0)) == stats_from_outcomes(
            outcomes, is_write
        )

    def test_rejects_unknown_codes(self):
        with pytest.raises(ValueError):
            outcome_counts(np.array([N_OUTCOMES]), np.array([False]))
