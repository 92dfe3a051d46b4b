"""Sequential stride prefetching for the DRAM cache.

An orthogonal extension the paper leaves open: the stream-style
workloads miss on *predictable* sequential sweeps, which a classic
next-page prefetcher converts into hits.  The detector keeps a small
table of recent miss addresses; ``degree`` consecutive-page misses
within a table entry arm it, and every subsequent sequential miss
prefetches the next ``distance`` pages into the cache (as clean
blocks, via the normal replacement policy).

Prefetch fills are tracked separately in :class:`PrefetchStats` so the
accuracy/coverage trade-off is visible: on random traffic a prefetcher
only pollutes, on stream it removes the sequential misses the GMM can
only pin fractionally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cache.policies.base import ReplacementPolicy
from repro.cache.setassoc import (
    SetAssociativeCache,
    _validate_stream,
    access_step,
    place,
)
from repro.cache.stats import (
    OUTCOME_DIRTY_EVICT,
    OUTCOME_FILL,
    OUTCOME_HIT,
    CacheStats,
    stats_from_outcomes,
)


@dataclass
class PrefetchStats:
    """Prefetcher-side counters.

    Attributes
    ----------
    issued:
        Pages prefetched into the cache.
    useful:
        Prefetched pages that were demand-hit before eviction.
    """

    issued: int = 0
    useful: int = 0

    @property
    def accuracy(self) -> float:
        """Useful prefetches over issued (0 when none issued)."""
        if self.issued == 0:
            return 0.0
        return self.useful / self.issued


class StridePrefetcher:
    """Sequential-miss detector with configurable depth.

    Parameters
    ----------
    degree:
        Consecutive-page misses required to arm a stream.
    distance:
        Pages fetched ahead once armed.
    table_size:
        Concurrent streams tracked (LRU replacement on the table).
    """

    def __init__(
        self, degree: int = 2, distance: int = 4, table_size: int = 8
    ) -> None:
        if degree < 1 or distance < 1 or table_size < 1:
            raise ValueError("degree, distance, table_size must be >= 1")
        self.degree = degree
        self.distance = distance
        self.table_size = table_size
        # stream id -> (next expected page, run length, last use tick)
        self._table: dict[int, tuple[int, int, int]] = {}
        self._tick = 0

    def observe_miss(self, page: int) -> list[int]:
        """Record a demand miss; returns pages to prefetch."""
        self._tick += 1
        for stream_id, (expected, run, _) in list(self._table.items()):
            if page == expected:
                run += 1
                self._table[stream_id] = (page + 1, run, self._tick)
                if run >= self.degree:
                    return [
                        page + offset
                        for offset in range(1, self.distance + 1)
                    ]
                return []
        # New stream; evict the stalest entry if the table is full.
        if len(self._table) >= self.table_size:
            stalest = min(
                self._table, key=lambda k: self._table[k][2]
            )
            del self._table[stalest]
        self._table[page] = (page + 1, 1, self._tick)
        return []


def simulate_with_prefetch(
    cache: SetAssociativeCache,
    policy: ReplacementPolicy,
    prefetcher: StridePrefetcher,
    pages: np.ndarray,
    is_write: np.ndarray,
    scores: np.ndarray | None = None,
    warmup_fraction: float = 0.0,
) -> tuple[CacheStats, PrefetchStats]:
    """Trace-driven simulation with demand-miss-triggered prefetch.

    Mirrors :func:`repro.cache.setassoc.simulate` (one
    :func:`~repro.cache.setassoc.access_step` per demand access) with
    one addition: each demand miss consults the prefetcher and
    installs the returned pages that are not resident as clean blocks
    through :func:`~repro.cache.setassoc.place` (respecting the
    replacement policy's victim choice; prefetches never bypass).
    The demand counters come from the outcome codes; a prefetch
    install's eviction counts too, its fill does not.  A demand hit
    counts as a useful prefetch when the page's latest fill was a
    prefetch not yet hit.
    """
    pages, is_write, scores, measure_from, _ = _validate_stream(
        pages, is_write, scores, warmup_fraction
    )
    n_sets = cache.geometry.n_sets
    tags_list = cache.tags.tolist()
    codes = np.empty(pages.shape[0], dtype=np.uint8)
    prefetch_stats = PrefetchStats()
    evictions = dirty_evictions = 0
    prefetched: set[int] = set()
    for access_index, (page, write, score) in enumerate(
        zip(pages.tolist(), is_write.tolist(), scores.tolist())
    ):
        set_index = page % n_sets
        code = access_step(
            cache, policy, tags_list[set_index], set_index, page,
            write, score, access_index,
        )
        codes[access_index] = code
        if code == OUTCOME_HIT:
            if page in prefetched:
                prefetched.discard(page)
                prefetch_stats.useful += 1
            continue
        prefetched.discard(page)
        for target in prefetcher.observe_miss(page):
            target_set = target % n_sets
            target_tags = tags_list[target_set]
            if target in target_tags:
                continue
            fill = place(
                cache, policy, target_tags, target_set, target, False,
                score, access_index,
            )
            prefetched.add(target)
            prefetch_stats.issued += 1
            if access_index >= measure_from and fill != OUTCOME_FILL:
                evictions += 1
                if fill == OUTCOME_DIRTY_EVICT:
                    dirty_evictions += 1
    stats = stats_from_outcomes(
        codes, is_write, np.arange(pages.shape[0]) >= measure_from
    )
    stats.evictions += evictions
    stats.dirty_evictions += dirty_evictions
    return stats, prefetch_stats
