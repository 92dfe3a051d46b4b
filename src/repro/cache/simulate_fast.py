"""The exact list loop behind every Fig. 6 replay.

The reference :func:`repro.cache.setassoc.simulate` walks the request
stream one access at a time through the policy's hook methods.  The
four Fig. 6 strategies -- LRU, GMM smart caching, smart eviction and
both -- reduce those hooks to a handful of facts (which plane the
victim is the first argmin of, the admission cut, whether a hit
stores the request score, where the fill metadata comes from), which
their policies declare as a
:class:`~repro.cache.policies.kernels.ListSpan`.  For them
:func:`simulate_fast` replays the stream in chunks of
:data:`CHUNK_SIZE` accesses through :func:`_list_span`: the touched
sets' rows are mirrored into Python lists and the hooks are inlined,
with no per-access method call or numpy scalar write.

Exactness is non-negotiable: :func:`simulate_fast` produces the
*bit-identical* :class:`~repro.cache.stats.CacheStats`, outcome codes
and final cache planes (tags/dirty/meta/stamp) of the reference loop,
for every policy, on every trace.  A chunk replays its accesses in
access order against the planes the previous chunk left, so cutting
a call into chunks changes nothing.  Every policy without a
declaration (FIFO, LFU, CLOCK, SLRU, 2Q, Belady, random, and any
subclass that overrides a hook below its declaring class) runs the
reference loop itself.
"""

from __future__ import annotations

import numpy as np

from repro.cache.policies.base import ReplacementPolicy
from repro.cache.policies.kernels import ListSpan, list_span_for
from repro.cache.setassoc import (
    INVALID,
    SetAssociativeCache,
    _validate_stream,
    simulate,
)
from repro.cache.stats import (
    OUTCOME_BYPASS,
    OUTCOME_DIRTY_EVICT,
    OUTCOME_EVICT,
    OUTCOME_FILL,
    OUTCOME_HIT,
    CacheStats,
    stats_from_outcomes,
)

#: Accesses per :func:`_list_span` call.  Bounds the list mirrors (one
#: row per touched set, one element per access) a call holds at once.
CHUNK_SIZE = 131072


def _list_span(
    cache: SetAssociativeCache,
    spec: ListSpan,
    stats: CacheStats,
    span_pages: np.ndarray,
    span_sets: np.ndarray,
    span_write: np.ndarray,
    span_scores: np.ndarray,
    span_idx: np.ndarray,
    measure_from: int,
    outcome: np.ndarray | None,
    outcome_base: int,
) -> None:
    """Exact access-at-a-time replay of one span over plain lists.

    :func:`repro.cache.setassoc._scalar_span` with the policy hooks
    inlined from the policy's :class:`ListSpan`: the tag/dirty/meta/
    stamp rows of the sets the span touches are mirrored into Python
    lists (plus a page -> way map of their resident blocks: a page
    maps to one set, so that is the hit test), and every access
    resolves hit -> admit -> first invalid way or first argmin victim
    -> fill on those lists, leaving only its outcome code in a
    ``bytearray``.  The rows go back to the planes once at the end,
    and the counters are rebuilt from the codes in one vector pass
    (every access carries exactly one code).  Only the touched rows
    are copied, so a short span over a large cache costs no
    whole-plane round trip; a per-set count maps each access to its
    row without sorting the span.
    """
    present = np.bincount(span_sets, minlength=cache.geometry.n_sets) > 0
    touched = np.flatnonzero(present)
    rows = (np.cumsum(present) - 1)[span_sets]
    tags = cache.tags[touched].tolist()
    dirty = cache.dirty[touched].tolist()
    meta = cache.meta[touched].tolist()
    stamp = cache.stamp[touched].tolist()
    victim_rows = meta if spec.evict_meta else stamp
    resident = {
        p: w for row in tags for w, p in enumerate(row) if p != INVALID
    }
    way_of = resident.get
    threshold = spec.threshold
    hit_meta = spec.hit_meta
    fill_get = None if spec.fill_scores is None else spec.fill_scores.get
    codes = bytearray()
    code = codes.append
    for page, row, write, score, stamp_value in zip(
        span_pages.tolist(),
        rows.tolist(),
        span_write.tolist(),
        span_scores.tolist(),
        span_idx.astype(np.float64).tolist(),
    ):
        way = way_of(page)
        if way is not None:
            stamp[row][way] = stamp_value
            if hit_meta:
                meta[row][way] = score
            if write:
                dirty[row][way] = True
            code(OUTCOME_HIT)
            continue
        if threshold is not None and not score >= threshold:
            code(OUTCOME_BYPASS)
            continue
        set_tags = tags[row]
        if INVALID in set_tags:
            way = set_tags.index(INVALID)
            code(OUTCOME_FILL)
        else:
            # ``min`` keeps the first of equal values (and a leading
            # NaN), exactly like ``argmin_way``'s keyed ``min``.
            values = victim_rows[row]
            way = values.index(min(values))
            code(OUTCOME_DIRTY_EVICT if dirty[row][way] else OUTCOME_EVICT)
            del resident[set_tags[way]]
        set_tags[way] = page
        resident[page] = way
        dirty[row][way] = write
        meta[row][way] = (
            0.0 if fill_get is None else float(fill_get(page, score))
        )
        stamp[row][way] = stamp_value
    cache.tags[touched] = tags
    cache.dirty[touched] = dirty
    cache.meta[touched] = meta
    cache.stamp[touched] = stamp
    codes = np.frombuffer(codes, dtype=np.uint8)
    counted = stats_from_outcomes(
        codes, span_write, span_idx >= measure_from
    )
    for name, value in vars(counted).items():
        setattr(stats, name, getattr(stats, name) + value)
    if outcome is not None:
        outcome[span_idx - outcome_base] = codes


def simulate_fast(
    cache: SetAssociativeCache,
    policy: ReplacementPolicy,
    pages: np.ndarray,
    is_write: np.ndarray,
    scores: np.ndarray | None = None,
    warmup_fraction: float = 0.0,
    index_offset: int = 0,
    outcome: np.ndarray | None = None,
) -> CacheStats:
    """Drop-in replacement for :func:`repro.cache.setassoc.simulate`.

    Same signature, same semantics, bit-identical results (counters,
    outcome codes and final cache/policy state).  A policy that
    declares a :class:`ListSpan` runs :func:`_list_span` over each
    :data:`CHUNK_SIZE`-access chunk; every other policy runs the
    reference loop (see the module docstring).

    Parameters
    ----------
    index_offset:
        Absolute access index of the first request (resumable chunked
        replay; see :func:`repro.cache.setassoc.simulate`).
    outcome:
        Optional ``uint8`` per-access outcome buffer (see
        :func:`repro.cache.setassoc.simulate`).
    """
    pages, is_write, scores, measure_from = _validate_stream(
        pages, is_write, scores, warmup_fraction, index_offset, outcome
    )
    spec = list_span_for(policy)
    if spec is None:
        return simulate(
            cache,
            policy,
            pages,
            is_write,
            scores=scores,
            warmup_fraction=warmup_fraction,
            index_offset=index_offset,
            outcome=outcome,
        )

    pages = pages.astype(np.int64, copy=False)
    is_write = is_write.astype(bool, copy=False)
    n = pages.shape[0]
    n_sets = cache.geometry.n_sets
    stats = CacheStats()
    for start in range(0, n, CHUNK_SIZE):
        stop = min(start + CHUNK_SIZE, n)
        c_pages = pages[start:stop]
        _list_span(
            cache, spec, stats,
            c_pages, c_pages % n_sets, is_write[start:stop],
            scores[start:stop], np.arange(start, stop) + index_offset,
            measure_from, outcome, index_offset,
        )
    return stats
