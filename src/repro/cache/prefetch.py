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
from repro.cache.setassoc import SetAssociativeCache
from repro.cache.stats import CacheStats


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

    Mirrors :func:`repro.cache.setassoc.simulate` with one addition:
    each demand miss consults the prefetcher and installs the returned
    pages as clean blocks (respecting the replacement policy's victim
    choice; prefetches never bypass).  Usefulness is tracked through a
    side set of resident prefetched pages: a demand hit on one counts
    as a useful prefetch, eviction before use does not.
    """
    pages = np.asarray(pages)
    is_write = np.asarray(is_write)
    if pages.shape != is_write.shape:
        raise ValueError("pages and is_write must have the same shape")
    if scores is None:
        scores = np.zeros(pages.shape[0], dtype=np.float64)
    else:
        scores = np.asarray(scores, dtype=np.float64)
        if scores.shape != pages.shape:
            raise ValueError("scores and pages must have the same shape")
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError("warmup_fraction must be in [0, 1)")
    measure_from = int(pages.shape[0] * warmup_fraction)

    stats = CacheStats()
    prefetch_stats = PrefetchStats()
    pending_prefetched: set[int] = set()

    def install(page: int, access_index: int, score: float) -> None:
        set_index, way = cache.lookup(page)
        if way is not None:
            return
        victim = cache.find_invalid_way(set_index)
        if victim is None:
            victim = policy.select_victim(cache, set_index, access_index)
            if access_index >= measure_from:
                stats.evictions += 1
                if cache.dirty[set_index][victim]:
                    stats.dirty_evictions += 1
            evicted = cache.tags[set_index][victim]
            pending_prefetched.discard(evicted)
        cache.fill(
            set_index,
            victim,
            page,
            False,
            policy.fill_meta(page, score, access_index),
            float(access_index),
        )

    for access_index in range(pages.shape[0]):
        page = int(pages[access_index])
        write = bool(is_write[access_index])
        score = float(scores[access_index])
        measured = access_index >= measure_from
        set_index, way = cache.lookup(page)

        if way is not None:
            policy.on_hit(cache, set_index, way, access_index, score)
            if write:
                cache.dirty[set_index][way] = True
            if measured:
                stats.hits += 1
                if write:
                    stats.write_hits += 1
            if page in pending_prefetched:
                pending_prefetched.discard(page)
                prefetch_stats.useful += 1
            continue

        if measured:
            stats.misses += 1
            if write:
                stats.write_misses += 1
        pending_prefetched.discard(page)
        to_prefetch = prefetcher.observe_miss(page)
        if policy.admit(page, score, write, access_index):
            if measured:
                stats.fills += 1
            victim = cache.find_invalid_way(set_index)
            if victim is None:
                victim = policy.select_victim(
                    cache, set_index, access_index
                )
                if measured:
                    stats.evictions += 1
                    if cache.dirty[set_index][victim]:
                        stats.dirty_evictions += 1
                evicted = cache.tags[set_index][victim]
                pending_prefetched.discard(evicted)
            cache.fill(
                set_index,
                victim,
                page,
                write,
                policy.fill_meta(page, score, access_index),
                float(access_index),
            )
        elif measured:
            stats.bypasses += 1
            if write:
                stats.bypassed_writes += 1
        for target in to_prefetch:
            _, existing = cache.lookup(target)
            if existing is None:
                install(target, access_index, score)
                pending_prefetched.add(target)
                prefetch_stats.issued += 1
    return stats, prefetch_stats
