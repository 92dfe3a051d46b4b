"""Chunked, vectorized trace-driven cache simulation.

The reference :func:`repro.cache.setassoc.simulate` walks the request
stream one access at a time through virtual-dispatch policy hooks --
faithful, but the bottleneck of every Fig. 6 / Table 1 / ablation
bench.  This module processes the stream in *chunks* of a few
thousand requests with whole-array operations, delegating the
policy-specific updates to the vectorized kernels registered in
:mod:`repro.cache.policies.kernels`.

Exactness is non-negotiable: :func:`simulate_fast` produces the
*bit-identical* :class:`~repro.cache.stats.CacheStats` and final
cache state (tags/dirty/meta/stamp) of the reference loop, for every
registered policy, on every trace.  The mechanism:

1.  **Chunking.**  The stream is cut into fixed-size chunks; hit
    detection for a whole chunk round is one gather-and-compare
    against the ``(n_sets, ways)`` tag plane.

2.  **Same-set rounds.**  Accesses within a chunk only interact when
    they map to the same cache set (all simulator and policy state is
    per-set; access order *across* sets never changes an outcome).
    Each chunk is therefore split into *rounds* by per-set occurrence
    rank: round ``r`` holds every access that is the ``r``-th touch
    of its set within the chunk.  Every set appears at most once per
    round, so a round is embarrassingly parallel
    (:func:`_process_round`), and processing rounds in rank order
    preserves the exact per-set access order.

3.  **Scalar tail.**  Round width shrinks with rank -- only hot sets
    are touched many times per chunk.  Once a round would hold fewer
    than ``min_round_width`` accesses, the chunk's remaining accesses
    -- every access of rank >= the current round -- run
    access-at-a-time instead, in access order.  Every vector-processed
    access of a set strictly precedes its tail accesses, so the
    per-set order (the only order that matters) is preserved and
    results stay exact.  A chunk whose *first* round is already too
    narrow (one scorching set) thereby runs entirely in the tail; on
    a cache with fewer sets than the cutoff no round can be wide
    enough, so its chunks go to the tail without being ranked.
    Kernels that declare a
    :class:`~repro.cache.policies.kernels.ListSpan` (LRU, score,
    combined) run the tail through :func:`_list_span`: the touched
    sets' rows are mirrored into Python lists and the policy hooks
    are inlined, with no per-access method call or numpy scalar
    write.  That loop breaks even with far wider rounds than the
    reference scalar span every other kernel runs, so list-span
    kernels default to the higher :data:`LIST_SPAN_MIN_ROUND_WIDTH`.

Policies without a registered kernel (notably ``RandomPolicy``,
whose RNG draw order cannot survive reordering, and user subclasses
that override scalar hooks) fall back to the reference
implementation for the whole trace.
"""

from __future__ import annotations

import numpy as np

from repro.cache.policies.base import ReplacementPolicy
from repro.cache.policies.kernels import ListSpan, PolicyKernel, kernel_for
from repro.cache.setassoc import (
    INVALID,
    SetAssociativeCache,
    _scalar_span,
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

#: Requests per chunk.  Bigger chunks amortise the per-chunk sort and
#: bookkeeping over more accesses; the per-round working set stays
#: small because round width is bounded by the set count.
DEFAULT_CHUNK_SIZE = 131072

#: Minimum round width (accesses) before the rest of a chunk is
#: handed to the scalar tail (below this the numpy call overhead
#: loses to the plain Python loop).
DEFAULT_MIN_ROUND_WIDTH = 48

#: The same for kernels that declare a ``ListSpan``, whose list-loop
#: tail breaks even later (sweep in ``docs/performance.md``).
LIST_SPAN_MIN_ROUND_WIDTH = 96


def _count(mask: np.ndarray) -> int:
    return int(np.count_nonzero(mask))


#: Row widths whose bool mask packs into one unsigned word, turning a
#: row-wise ``any`` reduction into a single vector compare.
_PACK_DTYPE = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}


def _row_any(mask: np.ndarray) -> np.ndarray:
    """Row-wise ``any`` over a C-contiguous ``(n, ways)`` bool mask."""
    packed = _PACK_DTYPE.get(mask.shape[1])
    if packed is None or not mask.flags.c_contiguous:
        return mask.any(axis=1)
    return mask.view(packed).reshape(mask.shape[0]) != 0


class _RoundScratch:
    """Reusable per-round gather buffers (malloc-free inner loop).

    Round width is bounded by ``min(chunk_size, n_sets)``; two
    ``(bound, ways)`` planes cover the tag gather and the tag compare
    for both the hit-detection and the invalid-way scans.
    """

    def __init__(self, bound: int, ways: int) -> None:
        self.tags = np.empty((bound, ways), dtype=np.int64)
        self.cmp = np.empty((bound, ways), dtype=bool)
        self.tags2 = np.empty((bound, ways), dtype=np.int64)
        self.cmp2 = np.empty((bound, ways), dtype=bool)


def _process_round(
    cache: SetAssociativeCache,
    kernel: PolicyKernel,
    stats: CacheStats,
    pages: np.ndarray,
    sets: np.ndarray,
    is_write: np.ndarray,
    scores: np.ndarray,
    idx: np.ndarray,
    measured,
    scratch: _RoundScratch,
    outcome: np.ndarray | None = None,
    outcome_base: int = 0,
) -> None:
    """Vectorized simulation of one round (all sets distinct).

    Mirrors the reference access loop stage for stage: hit detection,
    hit-side updates, miss counting, admission, victim selection
    (first invalid way, else the kernel's choice), and the fill.
    ``measured`` is ``True`` (whole round counted), ``False`` (pure
    warm-up), or a per-access bool array for the straddling chunk.
    ``idx`` holds absolute access indices; outcome codes land at
    ``outcome[idx - outcome_base]``.
    """
    mixed = not isinstance(measured, bool)
    record = outcome is not None
    m = pages.shape[0]
    tag_rows = cache.tags.take(sets, axis=0, out=scratch.tags[:m])
    match = np.equal(tag_rows, pages[:, None], out=scratch.cmp[:m])
    hit = _row_any(match)
    h_pos = np.nonzero(hit)[0]

    if h_pos.size:
        h_sets = sets.take(h_pos)
        h_ways = match.take(h_pos, axis=0).argmax(axis=1)
        h_write = is_write.take(h_pos)
        kernel.on_hits(
            h_sets, h_ways, idx.take(h_pos), scores.take(h_pos)
        )
        if h_write.any():
            cache.dirty[h_sets[h_write], h_ways[h_write]] = True
        if measured is True:
            stats.hits += int(h_pos.size)
            stats.write_hits += _count(h_write)
        elif mixed:
            h_measured = measured.take(h_pos)
            stats.hits += _count(h_measured)
            stats.write_hits += _count(h_measured & h_write)
        if record:
            outcome[idx.take(h_pos) - outcome_base] = OUTCOME_HIT

    if h_pos.size == m:
        return
    m_pos = np.nonzero(~hit)[0]
    m_write = is_write.take(m_pos)
    if measured is True:
        stats.misses += int(m_pos.size)
        stats.write_misses += _count(m_write)
    elif mixed:
        m_measured = measured.take(m_pos)
        stats.misses += _count(m_measured)
        stats.write_misses += _count(m_measured & m_write)

    if kernel.admits_all:
        a_pos = m_pos
    else:
        admitted = kernel.admit(
            pages.take(m_pos),
            scores.take(m_pos),
            m_write,
            idx.take(m_pos),
        )
        n_admitted = _count(admitted)
        if measured is True:
            stats.bypasses += int(m_pos.size) - n_admitted
            stats.bypassed_writes += _count(m_write) - _count(
                admitted & m_write
            )
        elif mixed:
            bypassed = ~admitted
            stats.bypasses += _count(m_measured & bypassed)
            stats.bypassed_writes += _count(
                m_measured & bypassed & m_write
            )
        if record:
            outcome[
                idx.take(m_pos[~admitted]) - outcome_base
            ] = OUTCOME_BYPASS
        if n_admitted == 0:
            return
        a_pos = m_pos[admitted]

    a_sets = sets.take(a_pos)
    a_pages = pages.take(a_pos)
    a_idx = idx.take(a_pos)
    ma = a_pos.shape[0]
    a_tag_rows = tag_rows.take(a_pos, axis=0, out=scratch.tags2[:ma])
    invalid_rows = np.equal(
        a_tag_rows, INVALID, out=scratch.cmp2[:ma]
    )
    has_invalid = _row_any(invalid_rows)
    n_invalid = _count(has_invalid)
    if n_invalid == ma:
        # Every target set has a free way (cold cache): no evictions.
        victims = invalid_rows.argmax(axis=1)
        if record:
            outcome[a_idx - outcome_base] = OUTCOME_FILL
    else:
        if n_invalid == 0:
            # Steady state: every target set is full.
            victims = kernel.select_victims(a_sets, a_idx)
            full_pos = None
            f_sets, f_victims = a_sets, victims
        else:
            victims = np.where(
                has_invalid, invalid_rows.argmax(axis=1), 0
            )
            full_pos = np.nonzero(~has_invalid)[0]
            f_sets = a_sets.take(full_pos)
            f_victims = kernel.select_victims(
                f_sets, a_idx.take(full_pos)
            )
            victims[full_pos] = f_victims
        f_dirty = cache.dirty[f_sets, f_victims]
        if measured is True:
            stats.evictions += int(f_sets.size)
            stats.dirty_evictions += _count(f_dirty)
        elif mixed:
            f_measured = (
                measured.take(a_pos)
                if full_pos is None
                else measured.take(a_pos.take(full_pos))
            )
            stats.evictions += _count(f_measured)
            stats.dirty_evictions += _count(f_measured & f_dirty)
        if record:
            outcome[a_idx - outcome_base] = OUTCOME_FILL
            f_idx = (
                a_idx if full_pos is None else a_idx.take(full_pos)
            )
            outcome[f_idx - outcome_base] = np.where(
                f_dirty, OUTCOME_DIRTY_EVICT, OUTCOME_EVICT
            ).astype(np.uint8)
    if measured is True:
        stats.fills += int(a_pos.size)
    elif mixed:
        stats.fills += _count(measured.take(a_pos))

    cache.tags[a_sets, victims] = a_pages
    cache.dirty[a_sets, victims] = is_write.take(a_pos)
    cache.meta[a_sets, victims] = kernel.fill_meta(
        a_pages, scores.take(a_pos), a_idx
    )
    cache.stamp[a_sets, victims] = a_idx.astype(np.float64)


def _rank_rounds(
    sets: np.ndarray, n_sets: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Per-set occurrence-rank round assignment.

    ``sets`` holds the cache set of each access of a chunk in access
    order; returns ``(bounds, seq, max_rank)`` such that round ``r``
    processes chunk positions ``seq[bounds[r]:bounds[r+1]]`` -- every
    set at most once per round, and a set's accesses spread over
    consecutive rounds in access order (the only ordering the
    simulation depends on).  Round ``r`` holds every set touched more
    than ``r`` times, so round widths never grow with rank.  Rounds
    are *contiguous* in ``seq`` so the per-round work operates on
    views; ordering set groups by descending size makes every round
    a prefix of the slots, which turns the placement into a direct
    scatter.  Sorting a uint16 key engages numpy's fast radix path
    (~8x over int64 comparison sort).
    """
    m = sets.shape[0]
    sort_key = sets.astype(np.uint16) if n_sets <= 65536 else sets
    order = np.argsort(sort_key, kind="stable")
    sorted_sets = sets[order]
    new_group = np.empty(m, dtype=bool)
    new_group[0] = True
    new_group[1:] = sorted_sets[1:] != sorted_sets[:-1]
    group_starts = np.nonzero(new_group)[0]
    group_sizes = np.diff(np.append(group_starts, m))
    max_rank = int(group_sizes.max())
    sorted_rank = np.arange(m) - np.repeat(group_starts, group_sizes)
    round_sizes = np.bincount(sorted_rank, minlength=max_rank)
    bounds = np.concatenate(([0], np.cumsum(round_sizes)))
    n_groups = group_starts.shape[0]
    size_desc = np.argsort(-group_sizes, kind="stable")
    slot_of_group = np.empty(n_groups, dtype=np.int64)
    slot_of_group[size_desc] = np.arange(n_groups)
    group_of = np.cumsum(new_group) - 1
    seq = np.empty(m, dtype=np.int64)
    seq[bounds[sorted_rank] + slot_of_group[group_of]] = order
    return bounds, seq, max_rank


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
    inlined from the kernel's :class:`ListSpan`: the tag/dirty/meta/
    stamp rows of the sets the span touches are mirrored into Python
    lists (plus a page -> way map of their resident blocks: a page
    maps to one set, so that is the hit test), and every access
    resolves hit -> admit -> first invalid way or first argmin victim
    -> fill on those lists, leaving only its outcome code in a
    ``bytearray``.  The rows go back to the planes once at the end,
    and the counters are rebuilt from the codes in one vector pass
    (every access carries exactly one code).  Only the touched rows
    are copied, so a short tail over a large cache costs no
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


def _run_scalar_tail(
    cache: SetAssociativeCache,
    policy: ReplacementPolicy,
    kernel: PolicyKernel,
    stats: CacheStats,
    pages: np.ndarray,
    is_write: np.ndarray,
    scores: np.ndarray,
    positions: np.ndarray,
    base: int,
    measure_from: int,
    outcome: np.ndarray | None,
    outcome_base: int,
) -> None:
    """Exact replay of chunk ``positions`` in access order.

    Runs :func:`_list_span` when the kernel declares a
    :class:`ListSpan`.  Otherwise flushes kernel-side mirrors into the
    policy, runs the reference scalar span over the touched sets' tag
    rows, and reloads.
    """
    span_pages = pages[positions]
    span_sets = span_pages % cache.geometry.n_sets
    span_idx = positions + base
    spec = kernel.list_span()
    if spec is not None:
        _list_span(
            cache, spec, stats,
            span_pages, span_sets, is_write[positions], scores[positions],
            span_idx, measure_from, outcome, outcome_base,
        )
        return
    touched = np.unique(span_sets)
    kernel.flush()
    _scalar_span(
        cache,
        policy,
        dict(zip(touched.tolist(), cache.tags[touched].tolist())),
        span_pages.tolist(),
        is_write[positions].tolist(),
        scores[positions].tolist(),
        span_idx.tolist(),
        measure_from,
        stats,
        outcome=outcome,
        outcome_base=outcome_base,
    )
    kernel.reload()


def simulate_fast(
    cache: SetAssociativeCache,
    policy: ReplacementPolicy,
    pages: np.ndarray,
    is_write: np.ndarray,
    scores: np.ndarray | None = None,
    warmup_fraction: float = 0.0,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    min_round_width: int | None = None,
    index_offset: int = 0,
    outcome: np.ndarray | None = None,
) -> CacheStats:
    """Vectorized drop-in replacement for
    :func:`repro.cache.setassoc.simulate`.

    Same signature, same semantics, bit-identical results (counters
    and final cache/policy state); see the module docstring for the
    mechanism.  Policies without a registered vector kernel -- or
    with scalar hooks overridden below their registration -- run the
    reference loop transparently.

    Parameters
    ----------
    chunk_size:
        Requests processed per vector step.
    min_round_width:
        Adaptive fallback threshold: once a chunk's next same-set
        round would hold fewer accesses than this, the chunk's
        remaining accesses run through the exact scalar span.
        ``None`` picks the kernel's tail's cutoff (mechanism 3
        above).
    index_offset:
        Absolute access index of the first request (resumable chunked
        replay; see :func:`repro.cache.setassoc.simulate`).
    outcome:
        Optional ``uint8`` per-access outcome buffer (see
        :func:`repro.cache.setassoc.simulate`).
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    if min_round_width is not None and min_round_width < 1:
        raise ValueError("min_round_width must be >= 1")
    pages, is_write, scores, measure_from = _validate_stream(
        pages, is_write, scores, warmup_fraction, index_offset, outcome
    )
    kernel = kernel_for(policy, cache)
    if kernel is None:
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

    if min_round_width is None:
        min_round_width = (
            DEFAULT_MIN_ROUND_WIDTH if kernel.list_span() is None
            else LIST_SPAN_MIN_ROUND_WIDTH
        )
    pages = pages.astype(np.int64, copy=False)
    is_write = is_write.astype(bool, copy=False)
    n = pages.shape[0]
    n_sets = cache.geometry.n_sets
    stats = CacheStats()
    scratch = _RoundScratch(
        min(chunk_size, n_sets), cache.geometry.associativity
    )

    # A round holds at most one access per set, so on a cache of fewer
    # sets than the cutoff no round is ever vector-processed: every
    # chunk is one scalar tail over all its positions, in access order.
    narrow = n_sets < min_round_width
    for start in range(0, n, chunk_size):
        stop = min(start + chunk_size, n)
        c_pages = pages[start:stop]
        c_write = is_write[start:stop]
        c_scores = scores[start:stop]
        base = start + index_offset
        if narrow:
            _run_scalar_tail(
                cache, policy, kernel, stats,
                c_pages, c_write, c_scores,
                np.arange(stop - start),
                base, measure_from, outcome, index_offset,
            )
            continue
        c_sets = c_pages % n_sets
        bounds, seq, max_rank = _rank_rounds(c_sets, n_sets)
        # Round widths never grow with rank, so the vector rounds are
        # the prefix of rounds at least ``min_round_width`` wide.
        n_vector = _count(np.diff(bounds) >= min_round_width)
        if n_vector:
            v_pos = seq[: bounds[n_vector]]
            r_pages = c_pages[v_pos]
            r_sets = c_sets[v_pos]
            r_write = c_write[v_pos]
            r_scores = c_scores[v_pos]
            r_idx = v_pos + base
            if measure_from <= base:
                r_measured: bool | np.ndarray = True
            elif measure_from >= stop + index_offset:
                r_measured = False
            else:
                r_measured = r_idx >= measure_from
            for rank in range(n_vector):
                lo = bounds[rank]
                hi = bounds[rank + 1]
                _process_round(
                    cache,
                    kernel,
                    stats,
                    r_pages[lo:hi],
                    r_sets[lo:hi],
                    r_write[lo:hi],
                    r_scores[lo:hi],
                    r_idx[lo:hi],
                    r_measured
                    if isinstance(r_measured, bool)
                    else r_measured[lo:hi],
                    scratch,
                    outcome=outcome,
                    outcome_base=index_offset,
                )

        if n_vector < max_rank:
            # Scalar tail: every access of rank >= `n_vector`, in
            # access order.  Per-set order is preserved (each set's
            # earlier touches were the vector rounds above), which is
            # the only ordering that matters.
            _run_scalar_tail(
                cache, policy, kernel, stats,
                c_pages, c_write, c_scores,
                np.sort(seq[bounds[n_vector] :]),
                base, measure_from, outcome, index_offset,
            )

    kernel.finalize()
    return stats
