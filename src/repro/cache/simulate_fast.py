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

2.  **Run-length batching.**  Consecutive accesses to the *same page*
    form a run.  Once the run's first access (the *representative*)
    resolves, the page is resident -- its followers are guaranteed
    hits on the same block and collapse into one closed-form kernel
    update (:meth:`~repro.cache.policies.kernels.PolicyKernel.
    on_hit_runs`) instead of one round each.  If the representative
    was *bypassed* the page is still absent, so the followers replay
    the admission scan vectorized: leading refusals are bypasses, the
    first admitted follower fills (with exact victim selection), and
    the rest collapse into hits again.  Traces that hammer a handful
    of hot pages (memtier/hashmap hot sets) thus cost a few vector
    operations per *run* rather than per access.  Batching engages
    only for kernels whose hit update composes exactly
    (``supports_hit_runs``) and whose admission rule is pure
    (``pure_admission``), and only for chunks where followers make
    up at least :data:`RUN_BATCH_MIN_FOLLOWER_FRACTION` of the
    accesses (below that density the run machinery's O(chunk) prep
    cannot pay for itself); everything else takes the plain
    per-access path, with identical results either way.

3.  **Same-set rounds.**  Run representatives within a chunk only
    interact when they map to the same cache set (all simulator and
    policy state is per-set; access order *across* sets never changes
    an outcome).  Each chunk is therefore split into *rounds* by
    per-set occurrence rank: round ``r`` holds every representative
    that is the ``r``-th touch of its set within the chunk.  Every
    set appears at most once per round, so a round is embarrassingly
    parallel, and processing rounds in rank order preserves the exact
    per-set access order (a run's followers are resolved before its
    set's next round).

4.  **Scalar tail.**  Round *weight* (the accesses a round covers,
    runs included) shrinks with rank -- only hot sets are touched many
    times per chunk.  Once a round would weigh less than
    ``min_round_width``, the chunk's remaining accesses -- exactly
    the full runs of every representative with rank >= the current
    round -- run access-at-a-time instead, in access order.  Every
    vector-processed access of a set strictly precedes its tail
    accesses, so the per-set order (the only order that matters) is
    preserved and results stay exact.  A chunk whose *first* round is
    already too light (tiny cache, one scorching set of distinct
    pages, a narrow plane of a few dozen sets) thereby runs entirely
    in the tail.  Kernels that declare a
    :class:`~repro.cache.policies.kernels.ListSpan` (LRU, score,
    combined) run the tail through :func:`_list_span`: the touched
    sets' rows are mirrored into Python lists and the policy hooks
    are inlined, with no per-access method call or numpy scalar
    write.  That loop breaks even with far heavier rounds than the
    reference scalar span every other kernel runs, so list-span
    kernels default to the higher :data:`LIST_SPAN_MIN_ROUND_WIDTH`.

5.  **Same-set run collapse.**  Same-set rounds cap progress at one
    representative per set per round, so a *set-skewed* trace (one
    scorching set hammered with a handful of distinct pages) used to
    degenerate to rounds of width one and thence to the scalar tail.
    For kernels whose hit updates are order-commutative *across ways*
    (``supports_set_runs`` -- LRU/FIFO/CLOCK/2Q/score/Belady/
    counter-random, and LFU without decay; SLRU and decayed LFU
    refuse), a contiguous span of same-set representatives collapses
    into one round element: the span's resident-page runs group by
    way into closed-form ``on_hit_runs`` updates (hits on different
    ways commute, so only each way's first/last/count summary is
    needed), and each miss resolves exactly in sequence -- admission,
    victim selection, fill, follower collapse -- with the span's
    remaining page->way matches patched incrementally.  Spans whose
    resolved prefix turns out miss-heavy bail to the scalar span
    (per-set order is preserved at any cut, so exactness survives the
    handoff).  Single-set and few-set hammer traces thus run at
    vector speed instead of scalar speed.

6.  **Cross-set short-span batching.**  Spans below
    ``SET_RUN_MIN_SPAN_REPS`` runs are too short to amortise a
    per-span resolver, but a round usually holds *many* such spans
    (interrupted hammering: ping-pong between sets, phased scans
    with breaks).  All short spans of a round advance together:
    one tag gather finds every span's leading resident segment,
    those segments batch into a single cross-set ``on_hit_runs``
    composite (rows carry distinct ``(set, way)`` pairs, and
    set-run kernels' composites are pure per-row scatters, so
    cross-set rows commute exactly like cross-way rows), each
    span's first missing run resolves through the normal
    distinct-set round machinery, and the span cursors advance --
    one vectorized iteration per miss layer instead of one round
    per representative.  ``short_span_batching=False`` restores
    the per-rep expansion schedule (identical results, for
    differential timing).

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

#: Minimum round weight (accesses covered, runs included) before the
#: rest of a chunk is handed to the scalar tail (below this the numpy
#: call overhead loses to the plain Python loop).
DEFAULT_MIN_ROUND_WIDTH = 48

#: The same for kernels that declare a ``ListSpan``, whose list-loop
#: tail breaks even later (sweep in ``docs/performance.md``).
LIST_SPAN_MIN_ROUND_WIDTH = 96

#: Run batching engages for a chunk only when at least this fraction
#: of its accesses are run followers (consecutive same-page repeats).
#: The run machinery costs a few O(chunk) cumulative sums; below this
#: density the collapsible work cannot repay them, and the chunk
#: takes the plain per-access path (identical results either way).
RUN_BATCH_MIN_FOLLOWER_FRACTION = 1 / 8

#: A set-run span resolver tolerates this many misses before it
#: starts watching its miss density; once misses exceed a quarter of
#: the representatives resolved, the span's remainder is handed to
#: the scalar span (each miss costs an O(remaining-span) rematch, so
#: a miss-heavy span would otherwise go quadratic).
SET_RUN_BAIL_MIN_MISSES = 8

#: Minimum runs in a contiguous same-set span before it collapses
#: into one round element.  A span resolver costs a few dozen numpy
#: calls regardless of span length; below this the per-element round
#: machinery is cheaper, so short spans are expanded back into
#: singleton elements (identical results, just a different schedule).
SET_RUN_MIN_SPAN_REPS = 48

#: Round-wide short-span batching (mechanism 6) engages for a chunk
#: only when its short spans carry at least this many runs per unit
#: of per-set span depth (the deepest stack of short spans in any
#: one set, which bounds how many rounds the shorts spread across).
#: The batched resolver costs a fixed handful of numpy calls per
#: miss layer per round; narrow rounds -- few concurrent short
#: spans -- repay that overhead more slowly than the plain
#: expansion schedule does, so below this density the chunk keeps
#: the pre-batching expansion (identical results, just a different
#: schedule).
SHORT_SPAN_MIN_ROUND_REPS = 64


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


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(s, s + l)`` for each (start, length).

    The run machinery's workhorse: expands per-run (start, length)
    pairs into the flat member positions with two cumulative sums --
    no Python loop.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    out = np.ones(total, dtype=np.int64)
    boundaries = np.cumsum(lengths)[:-1]
    out[0] = starts[0]
    out[boundaries] = starts[1:] - (starts[:-1] + lengths[:-1] - 1)
    return np.cumsum(out)


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


class _ChunkRuns:
    """Run-length view of one chunk (consecutive same-page accesses).

    Everything the follower-resolution pass needs, precomputed with
    O(chunk) cumulative sums: per-run member spans, follower write /
    measured-write aggregates, and first/last indices and scores.
    Arrays are indexed by *run id* (= representative order within the
    chunk).
    """

    def __init__(
        self,
        rep_pos: np.ndarray,
        m: int,
        base: int,
        pages: np.ndarray,
        sets: np.ndarray,
        is_write: np.ndarray,
        scores: np.ndarray,
        measured,  # True | False | per-access bool array
    ) -> None:
        self.rep_pos = rep_pos
        self.base = base
        self.pages = pages
        self.sets = sets
        self.is_write = is_write
        self.scores = scores
        self.run_len = np.diff(np.append(rep_pos, m))
        self.run_end = rep_pos + self.run_len  # exclusive
        self.fol_count = self.run_len - 1
        self._cw = np.concatenate(
            ([0], np.cumsum(is_write, dtype=np.int64))
        )
        if isinstance(measured, bool):
            self._cm = None
            self._all_measured = measured
        else:
            self._cm = np.concatenate(
                ([0], np.cumsum(measured, dtype=np.int64))
            )
            self._cmw = np.concatenate(
                (
                    [0],
                    np.cumsum(measured & is_write, dtype=np.int64),
                )
            )
            self._all_measured = None

    # -- span aggregates (chunk positions, end exclusive) --------------
    def writes_in(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        return self._cw[hi] - self._cw[lo]

    def measured_in(
        self, lo: np.ndarray, hi: np.ndarray
    ) -> np.ndarray:
        if self._cm is None:
            return (hi - lo) if self._all_measured else np.zeros_like(lo)
        return self._cm[hi] - self._cm[lo]

    def measured_writes_in(
        self, lo: np.ndarray, hi: np.ndarray
    ) -> np.ndarray:
        if self._cm is None:
            return (
                self.writes_in(lo, hi)
                if self._all_measured
                else np.zeros_like(lo)
            )
        return self._cmw[hi] - self._cmw[lo]


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
    resident: np.ndarray | None = None,
) -> None:
    """Vectorized simulation of one round (all sets distinct).

    Mirrors the reference access loop stage for stage: hit detection,
    hit-side updates, miss counting, admission, victim selection
    (first invalid way, else the kernel's choice), and the fill.
    ``measured`` is ``True`` (whole round counted), ``False`` (pure
    warm-up), or a per-access bool array for the straddling chunk.
    ``idx`` holds absolute access indices; outcome codes land at
    ``outcome[idx - outcome_base]``.  When the run engine passes
    ``resident`` (a ones-initialised bool array of the round's
    width), positions whose access left the page absent -- i.e.
    bypassed misses -- are cleared in it.
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
        if resident is not None:
            resident[m_pos[~admitted]] = False
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


def _resolve_hit_runs(
    cache: SetAssociativeCache,
    kernel: PolicyKernel,
    stats: CacheStats,
    runs: _ChunkRuns,
    ids: np.ndarray,
    ways: np.ndarray,
    first_pos: np.ndarray,
    outcome: np.ndarray | None,
    chunk_start: int,
) -> None:
    """Apply the collapsed effect of all-hit follower spans.

    ``ids`` are run ids whose followers from chunk position
    ``first_pos`` (inclusive) to the run's end are guaranteed hits on
    way ``ways`` of the run's set; counts the hits, ORs the dirty
    bit, and hands the kernel one closed-form ``on_hit_runs`` update.
    """
    sets = runs.sets[runs.rep_pos[ids]]
    end = runs.run_end[ids]
    last_pos = end - 1
    stats.hits += int(runs.measured_in(first_pos, end).sum())
    stats.write_hits += int(
        runs.measured_writes_in(first_pos, end).sum()
    )
    wet = runs.writes_in(first_pos, end) > 0
    if wet.any():
        cache.dirty[sets[wet], ways[wet]] = True
    kernel.on_hit_runs(
        sets,
        ways,
        first_pos + runs.base,
        last_pos + runs.base,
        end - first_pos,
        runs.scores[first_pos],
        runs.scores[last_pos],
    )
    if outcome is not None:
        flat = _ranges(first_pos, end - first_pos)
        outcome[flat + chunk_start] = OUTCOME_HIT


def _resolve_bypass_runs(
    cache: SetAssociativeCache,
    kernel: PolicyKernel,
    stats: CacheStats,
    runs: _ChunkRuns,
    ids: np.ndarray,
    outcome: np.ndarray | None,
    chunk_start: int,
) -> None:
    """Exact follower replay for runs whose representative bypassed.

    The page is still absent, so each follower repeats the (pure)
    admission decision on its own score: the leading refusals are
    bypassed misses, the first admitted follower fills -- victim
    selection included -- and everything after it collapses into a
    hit run on the filled way.
    """
    record = outcome is not None
    starts = runs.rep_pos[ids] + 1
    lens = runs.fol_count[ids]
    flat = _ranges(starts, lens)
    admitted = kernel.admit(
        runs.pages[flat],
        runs.scores[flat],
        runs.is_write[flat],
        flat + runs.base,
    )
    # First admitted flat offset per run (flat.size = "none").
    seg_starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
    pos_in_flat = np.arange(flat.size, dtype=np.int64)
    keyed = np.where(admitted, pos_in_flat, flat.size)
    first_adm = np.minimum.reduceat(keyed, seg_starts)
    # cumulative-min across the whole array would bleed between
    # segments only if a segment were empty; lens >= 1 by
    # construction (only runs with followers reach here).

    # Bypassed prefix of every run (the whole run when none admitted).
    seg_of = np.repeat(np.arange(ids.shape[0]), lens)
    bypass_mask = pos_in_flat < first_adm[seg_of]
    fill_pos = np.where(
        first_adm < flat.size,
        flat[np.minimum(first_adm, flat.size - 1)],
        runs.run_end[ids],  # sentinel: == end, empty hit span
    )
    bypassed_measured = int(runs.measured_in(starts, fill_pos).sum())
    bypassed_measured_writes = int(
        runs.measured_writes_in(starts, fill_pos).sum()
    )
    stats.misses += bypassed_measured
    stats.write_misses += bypassed_measured_writes
    stats.bypasses += bypassed_measured
    stats.bypassed_writes += bypassed_measured_writes
    if record:
        outcome[flat[bypass_mask] + chunk_start] = OUTCOME_BYPASS

    has_fill = first_adm < flat.size
    if not has_fill.any():
        return
    f_ids = ids[has_fill]
    p = fill_pos[has_fill]
    f_sets = runs.sets[p]
    f_pages = runs.pages[p]
    f_idx = p + runs.base
    f_write = runs.is_write[p]
    f_measured = runs.measured_in(p, p + 1).astype(bool)
    stats.misses += _count(f_measured)
    stats.write_misses += _count(f_measured & f_write)
    stats.fills += _count(f_measured)

    # Victim selection, exactly like the main fill path: first
    # invalid way, else the kernel's choice (sets are distinct within
    # the round, so one vectorized call is order-safe).
    tag_rows = cache.tags[f_sets]
    invalid_rows = tag_rows == INVALID
    has_invalid = _row_any(invalid_rows)
    victims = np.where(has_invalid, invalid_rows.argmax(axis=1), 0)
    full = np.nonzero(~has_invalid)[0]
    if record:
        outcome[f_idx + chunk_start - runs.base] = OUTCOME_FILL
    if full.size:
        e_sets = f_sets.take(full)
        e_victims = kernel.select_victims(e_sets, f_idx.take(full))
        victims[full] = e_victims
        e_dirty = cache.dirty[e_sets, e_victims]
        e_measured = f_measured.take(full)
        stats.evictions += _count(e_measured)
        stats.dirty_evictions += _count(e_measured & e_dirty)
        if record:
            outcome[f_idx.take(full) + chunk_start - runs.base] = (
                np.where(
                    e_dirty, OUTCOME_DIRTY_EVICT, OUTCOME_EVICT
                ).astype(np.uint8)
            )
    cache.tags[f_sets, victims] = f_pages
    cache.dirty[f_sets, victims] = f_write
    cache.meta[f_sets, victims] = kernel.fill_meta(
        f_pages, runs.scores[p], f_idx
    )
    cache.stamp[f_sets, victims] = f_idx.astype(np.float64)

    # Followers after the fill are hits on the freshly filled way.
    tail = runs.run_end[f_ids] - (p + 1) > 0
    if tail.any():
        _resolve_hit_runs(
            cache,
            kernel,
            stats,
            runs,
            f_ids[tail],
            victims[tail],
            p[tail] + 1,
            outcome,
            chunk_start,
        )


def _resolve_runs(
    cache: SetAssociativeCache,
    kernel: PolicyKernel,
    stats: CacheStats,
    runs: _ChunkRuns,
    rep_rows: np.ndarray,
    r_sets: np.ndarray,
    r_pages: np.ndarray,
    resident: np.ndarray,
    outcome: np.ndarray | None,
    chunk_start: int,
) -> None:
    """Resolve the followers of one processed round's runs.

    Called right after :func:`_process_round` on the round's
    representatives (``rep_rows`` are their run ids) and before the
    next round -- so every follower lands between its representative
    and the set's next access, preserving exact per-set order.
    """
    has_followers = runs.fol_count[rep_rows] > 0
    if not has_followers.any():
        return
    collapsed = has_followers & resident
    rows = np.nonzero(collapsed)[0]
    if rows.size:
        ids = rep_rows[rows]
        sets_c = r_sets[rows]
        match = cache.tags[sets_c] == r_pages[rows][:, None]
        ways = match.argmax(axis=1)
        _resolve_hit_runs(
            cache,
            kernel,
            stats,
            runs,
            ids,
            ways,
            runs.rep_pos[ids] + 1,
            outcome,
            chunk_start,
        )
    bypassed = has_followers & ~resident
    rows = np.nonzero(bypassed)[0]
    if rows.size:
        _resolve_bypass_runs(
            cache,
            kernel,
            stats,
            runs,
            rep_rows[rows],
            outcome,
            chunk_start,
        )


def _rank_rounds(
    element_sets: np.ndarray, n_sets: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Per-set occurrence-rank round assignment.

    ``element_sets`` holds the cache set of each round element in
    access order; returns ``(bounds, seq, max_rank)`` such that round
    ``r`` processes elements ``seq[bounds[r]:bounds[r+1]]`` -- every
    set at most once per round, and a set's elements spread over
    consecutive rounds in access order (the only ordering the
    simulation depends on).  Rounds are *contiguous* in ``seq`` so
    the per-round work operates on views; ordering set groups by
    descending size turns the placement into a direct scatter (see
    the inline comments at the original call site in earlier
    revisions).  Sorting a uint16 key engages numpy's fast radix
    path (~8x over int64 comparison sort).
    """
    m = element_sets.shape[0]
    sort_key = (
        element_sets.astype(np.uint16)
        if n_sets <= 65536
        else element_sets
    )
    order = np.argsort(sort_key, kind="stable")
    sorted_sets = element_sets[order]
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
    whole-plane round trip.
    """
    touched, rows = np.unique(span_sets, return_inverse=True)
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
    rows, and reloads -- the shared epilogue of every vector-path
    bailout.
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


def _apply_span_hits(
    cache: SetAssociativeCache,
    kernel: PolicyKernel,
    stats: CacheStats,
    runs: _ChunkRuns,
    ids: np.ndarray,
    ways: np.ndarray,
    set_index: int,
    outcome: np.ndarray | None,
    chunk_start: int,
) -> None:
    """Collapsed update for a span segment of all-resident runs.

    ``ids`` are consecutive run ids of one set whose pages are all
    resident (on way ``ways[i]``); every member access is a hit.
    Runs group by way, and each way receives one ``on_hit_runs``
    composite -- sound because set-run kernels' hit updates commute
    across ways (the ``supports_set_runs`` contract), so interleaved
    hit order between ways cannot change the outcome.
    """
    order = np.argsort(ways, kind="stable")
    ids_sorted = ids[order]
    ways_sorted = ways[order]
    m = ids_sorted.shape[0]
    boundary = np.empty(m, dtype=bool)
    boundary[0] = True
    boundary[1:] = ways_sorted[1:] != ways_sorted[:-1]
    group_starts = np.nonzero(boundary)[0]
    group_sizes = np.diff(np.append(group_starts, m))
    lo = runs.rep_pos[ids_sorted]
    hi = runs.run_end[ids_sorted]
    counts = np.add.reduceat(hi - lo, group_starts)
    measured = np.add.reduceat(
        runs.measured_in(lo, hi), group_starts
    )
    measured_writes = np.add.reduceat(
        runs.measured_writes_in(lo, hi), group_starts
    )
    writes = np.add.reduceat(runs.writes_in(lo, hi), group_starts)
    stats.hits += int(measured.sum())
    stats.write_hits += int(measured_writes.sum())
    group_ways = ways_sorted[group_starts]
    wet = writes > 0
    if wet.any():
        cache.dirty[set_index, group_ways[wet]] = True
    first_member = ids_sorted[group_starts]
    last_member = ids_sorted[group_starts + group_sizes - 1]
    first_pos = runs.rep_pos[first_member]
    last_pos = runs.run_end[last_member] - 1
    kernel.on_hit_runs(
        np.full(group_ways.shape[0], set_index, dtype=np.int64),
        group_ways,
        first_pos + runs.base,
        last_pos + runs.base,
        counts,
        runs.scores[first_pos],
        runs.scores[last_pos],
    )
    if outcome is not None:
        flat = _ranges(runs.rep_pos[ids], runs.run_len[ids])
        outcome[flat + chunk_start] = OUTCOME_HIT


def _apply_span_hits_multi(
    cache: SetAssociativeCache,
    kernel: PolicyKernel,
    stats: CacheStats,
    runs: _ChunkRuns,
    ids: np.ndarray,
    ways: np.ndarray,
    sets: np.ndarray,
    outcome: np.ndarray | None,
    chunk_start: int,
) -> None:
    """Collapsed update for resident-run segments across many sets.

    The cross-set generalisation of :func:`_apply_span_hits`:
    ``ids[i]`` is a run resident on way ``ways[i]`` of set
    ``sets[i]``, with each set's runs appearing in access order.
    Runs group by ``(set, way)`` and each group receives one
    ``on_hit_runs`` composite -- sound because set-run kernels'
    composites are pure per-row scatters over distinct
    ``(set, way)`` rows, so cross-set rows commute exactly like the
    cross-way rows of the single-set path.
    """
    n_ways = cache.geometry.associativity
    key = sets * np.int64(n_ways) + ways
    order = np.argsort(key, kind="stable")
    ids_sorted = ids[order]
    key_sorted = key[order]
    m = ids_sorted.shape[0]
    boundary = np.empty(m, dtype=bool)
    boundary[0] = True
    boundary[1:] = key_sorted[1:] != key_sorted[:-1]
    group_starts = np.nonzero(boundary)[0]
    group_sizes = np.diff(np.append(group_starts, m))
    lo = runs.rep_pos[ids_sorted]
    hi = runs.run_end[ids_sorted]
    counts = np.add.reduceat(hi - lo, group_starts)
    measured = np.add.reduceat(
        runs.measured_in(lo, hi), group_starts
    )
    measured_writes = np.add.reduceat(
        runs.measured_writes_in(lo, hi), group_starts
    )
    writes = np.add.reduceat(runs.writes_in(lo, hi), group_starts)
    stats.hits += int(measured.sum())
    stats.write_hits += int(measured_writes.sum())
    group_sets = sets[order][group_starts]
    group_ways = ways[order][group_starts]
    wet = writes > 0
    if wet.any():
        cache.dirty[group_sets[wet], group_ways[wet]] = True
    first_member = ids_sorted[group_starts]
    last_member = ids_sorted[group_starts + group_sizes - 1]
    first_pos = runs.rep_pos[first_member]
    last_pos = runs.run_end[last_member] - 1
    kernel.on_hit_runs(
        group_sets,
        group_ways,
        first_pos + runs.base,
        last_pos + runs.base,
        counts,
        runs.scores[first_pos],
        runs.scores[last_pos],
    )
    if outcome is not None:
        flat = _ranges(runs.rep_pos[ids], runs.run_len[ids])
        outcome[flat + chunk_start] = OUTCOME_HIT


def _resolve_miss_run(
    cache: SetAssociativeCache,
    kernel: PolicyKernel,
    stats: CacheStats,
    runs: _ChunkRuns,
    rep_id: int,
    set_index: int,
    outcome: np.ndarray | None,
    chunk_start: int,
) -> tuple[int, int] | None:
    """Exact resolution of one whole run opening with a miss.

    The run's page is absent: leading admission refusals are
    bypassed misses, the first admitted member fills (victim
    selection included), and the remainder collapses into a hit run
    on the filled way -- the span-path analogue of
    :func:`_resolve_bypass_runs`, for a single run that *starts* at
    its representative.  Returns ``(page, victim_way)`` when a fill
    happened (the caller must re-match later span pages against the
    changed tag), else ``None``.
    """
    record = outcome is not None
    p_lo = int(runs.rep_pos[rep_id])
    p_hi = int(runs.run_end[rep_id])
    if kernel.admits_all:
        first_adm = 0
    else:
        members = np.arange(p_lo, p_hi, dtype=np.int64)
        admitted = kernel.admit(
            runs.pages[members],
            runs.scores[members],
            runs.is_write[members],
            members + runs.base,
        )
        first_adm = (
            int(admitted.argmax())
            if admitted.any()
            else p_hi - p_lo
        )
    if first_adm > 0:
        span = (
            np.asarray([p_lo]),
            np.asarray([p_lo + first_adm]),
        )
        bypassed = int(runs.measured_in(*span)[0])
        bypassed_writes = int(runs.measured_writes_in(*span)[0])
        stats.misses += bypassed
        stats.write_misses += bypassed_writes
        stats.bypasses += bypassed
        stats.bypassed_writes += bypassed_writes
        if record:
            outcome[
                np.arange(p_lo, p_lo + first_adm) + chunk_start
            ] = OUTCOME_BYPASS
    if first_adm == p_hi - p_lo:
        return None
    fill_pos = p_lo + first_adm
    fill_measured = bool(
        runs.measured_in(
            np.asarray([fill_pos]), np.asarray([fill_pos + 1])
        )[0]
    )
    fill_write = bool(runs.is_write[fill_pos])
    if fill_measured:
        stats.misses += 1
        if fill_write:
            stats.write_misses += 1
        stats.fills += 1
    page = int(runs.pages[fill_pos])
    idx = fill_pos + runs.base
    invalid = np.nonzero(cache.tags[set_index] == INVALID)[0]
    if invalid.size:
        victim = int(invalid[0])
        if record:
            outcome[fill_pos + chunk_start] = OUTCOME_FILL
    else:
        victim = int(
            kernel.select_victims(
                np.asarray([set_index]), np.asarray([idx])
            )[0]
        )
        victim_dirty = bool(cache.dirty[set_index, victim])
        if fill_measured:
            stats.evictions += 1
            if victim_dirty:
                stats.dirty_evictions += 1
        if record:
            outcome[fill_pos + chunk_start] = (
                OUTCOME_DIRTY_EVICT if victim_dirty else OUTCOME_EVICT
            )
    cache.tags[set_index, victim] = page
    cache.dirty[set_index, victim] = fill_write
    cache.meta[set_index, victim] = kernel.fill_meta(
        np.asarray([page]),
        runs.scores[fill_pos : fill_pos + 1],
        np.asarray([idx]),
    )[0]
    cache.stamp[set_index, victim] = float(idx)
    if p_hi - fill_pos > 1:
        _resolve_hit_runs(
            cache,
            kernel,
            stats,
            runs,
            np.asarray([rep_id]),
            np.asarray([victim]),
            np.asarray([fill_pos + 1]),
            outcome,
            chunk_start,
        )
    return page, victim


def _resolve_set_span(
    cache: SetAssociativeCache,
    kernel: PolicyKernel,
    policy: ReplacementPolicy,
    stats: CacheStats,
    runs: _ChunkRuns,
    rep_lo: int,
    rep_count: int,
    outcome: np.ndarray | None,
    chunk_start: int,
    outcome_base: int,
    measure_from: int,
) -> None:
    """Resolve one contiguous same-set span of ``rep_count`` runs.

    Pages are matched against the set's tags once; maximal resident
    segments collapse through :func:`_apply_span_hits` and each miss
    resolves exactly in sequence, patching the remaining matches
    against the filled tag (a fill changes exactly one way, so only
    runs matching the evicted tag or the filled page flip state).
    Spans that turn out miss-heavy bail to the scalar span -- per-set
    order is preserved at any cut, so the handoff stays exact.
    """
    rep_ids = np.arange(rep_lo, rep_lo + rep_count, dtype=np.int64)
    rep_positions = runs.rep_pos[rep_ids]
    rep_pages = runs.pages[rep_positions]
    set_index = int(runs.sets[rep_positions[0]])
    match = rep_pages[:, None] == cache.tags[set_index][None, :]
    found = match.any(axis=1)
    way_of = np.where(found, match.argmax(axis=1), -1)
    cursor = 0
    misses = 0
    hit_reps = 0
    while cursor < rep_count:
        absent = way_of[cursor:] < 0
        stop_rel = (
            int(absent.argmax()) if absent.any() else absent.shape[0]
        )
        stop = cursor + stop_rel
        if stop > cursor:
            _apply_span_hits(
                cache,
                kernel,
                stats,
                runs,
                rep_ids[cursor:stop],
                way_of[cursor:stop],
                set_index,
                outcome,
                chunk_start,
            )
            hit_reps += stop - cursor
        if stop == rep_count:
            return
        fill = _resolve_miss_run(
            cache,
            kernel,
            stats,
            runs,
            int(rep_ids[stop]),
            set_index,
            outcome,
            chunk_start,
        )
        misses += 1
        if fill is not None:
            page, victim = fill
            tail_ways = way_of[stop + 1 :]
            tail_pages = rep_pages[stop + 1 :]
            np.copyto(tail_ways, -1, where=tail_ways == victim)
            np.copyto(tail_ways, victim, where=tail_pages == page)
        cursor = stop + 1
        if (
            cursor < rep_count
            and misses >= SET_RUN_BAIL_MIN_MISSES
            and 4 * misses > misses + hit_reps
        ):
            rest = rep_ids[cursor:]
            positions = _ranges(
                runs.rep_pos[rest], runs.run_len[rest]
            )
            _run_scalar_tail(
                cache,
                policy,
                kernel,
                stats,
                runs.pages,
                runs.is_write,
                runs.scores,
                positions,
                runs.base,
                measure_from,
                outcome,
                outcome_base,
            )
            return


def _resolve_short_spans(
    cache: SetAssociativeCache,
    kernel: PolicyKernel,
    stats: CacheStats,
    runs: _ChunkRuns,
    rep_first: np.ndarray,
    rep_counts: np.ndarray,
    scratch: _RoundScratch,
    chunk_measured,
    measure_from: int,
    outcome: np.ndarray | None,
    chunk_start: int,
    outcome_base: int,
) -> None:
    """Batched resolution of one round's short same-set spans.

    ``rep_first[j] .. rep_first[j] + rep_counts[j]`` are the run ids
    of span ``j``; spans belong to one round, so their sets are all
    distinct.  Per iteration: one gather matches every span's
    unresolved runs against its set's tags, the leading resident
    segments of *all* spans batch into one cross-set
    :func:`_apply_span_hits_multi` composite, each span's first
    missing run resolves through the ordinary distinct-set round
    machinery (:func:`_process_round` + :func:`_resolve_runs`), and
    the cursors advance past the miss.  Per-set order is exact: a
    span's resident prefix strictly precedes its miss in access
    order and is applied first, and composites never touch the tag
    plane, so the miss round sees precisely the tags it would have
    seen scalar.  Iteration count is bounded by the deepest span's
    miss count (< ``SET_RUN_MIN_SPAN_REPS``), every step vectorized
    across spans.
    """
    cur = rep_first.astype(np.int64, copy=True)
    end = rep_first + rep_counts
    while True:
        active = cur < end
        if not active.any():
            return
        a_cur = cur[active]
        counts = end[active] - a_cur
        flat_ids = _ranges(a_cur, counts)
        f_pos = runs.rep_pos[flat_ids]
        f_pages = runs.pages[f_pos]
        f_sets = runs.sets[f_pos]
        match = cache.tags[f_sets] == f_pages[:, None]
        found = _row_any(match)
        way_of = match.argmax(axis=1)
        # First missing run of every span (flat offsets; the
        # sentinel ``flat_ids.size`` marks an all-resident span).
        seg_starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        seg_of = np.repeat(np.arange(a_cur.shape[0]), counts)
        pif = np.arange(flat_ids.size, dtype=np.int64)
        keyed = np.where(found, flat_ids.size, pif)
        first_miss = np.minimum.reduceat(keyed, seg_starts)
        in_prefix = pif < first_miss[seg_of]
        if in_prefix.any():
            _apply_span_hits_multi(
                cache,
                kernel,
                stats,
                runs,
                flat_ids[in_prefix],
                way_of[in_prefix],
                f_sets[in_prefix],
                outcome,
                chunk_start,
            )
        has_miss = first_miss < flat_ids.size
        if has_miss.any():
            miss_ids = flat_ids[first_miss[has_miss]]
            pos = runs.rep_pos[miss_ids]
            idxs = pos + runs.base
            resident = np.ones(pos.shape[0], dtype=bool)
            _process_round(
                cache,
                kernel,
                stats,
                runs.pages[pos],
                runs.sets[pos],
                runs.is_write[pos],
                runs.scores[pos],
                idxs,
                chunk_measured
                if isinstance(chunk_measured, bool)
                else idxs >= measure_from,
                scratch,
                outcome=outcome,
                outcome_base=outcome_base,
                resident=resident,
            )
            _resolve_runs(
                cache,
                kernel,
                stats,
                runs,
                miss_ids,
                runs.sets[pos],
                runs.pages[pos],
                resident,
                outcome,
                chunk_start,
            )
        cur[active] = np.where(
            has_miss,
            flat_ids[np.minimum(first_miss, flat_ids.size - 1)] + 1,
            end[active],
        )


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
    run_batching: bool = True,
    set_run_collapse: bool = True,
    short_span_batching: bool = True,
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
        round would cover fewer accesses than this (runs included),
        the chunk's remaining accesses run through the exact scalar
        span.  ``None`` picks the kernel's tail's cutoff (mechanism
        4 above).
    index_offset:
        Absolute access index of the first request (resumable chunked
        replay; see :func:`repro.cache.setassoc.simulate`).
    outcome:
        Optional ``uint8`` per-access outcome buffer (see
        :func:`repro.cache.setassoc.simulate`).
    run_batching:
        Collapse consecutive same-page accesses into closed-form run
        updates (mechanism 2 above).  On by default; the switch
        exists for differential testing and for timing the unbatched
        engine.
    set_run_collapse:
        Collapse contiguous same-set spans of runs into single round
        elements for order-commutative kernels (mechanism 5 above).
        On by default (kernels without ``supports_set_runs`` refuse
        it regardless); the switch exists for differential testing
        and for timing the uncollapsed engine.
    short_span_batching:
        Resolve each round's sub-``SET_RUN_MIN_SPAN_REPS`` spans
        together in cross-set batched iterations (mechanism 6
        above) instead of expanding them back into per-run round
        elements.  On by default; only meaningful when
        ``set_run_collapse`` is engaged.  The switch exists for
        differential testing and for timing the expansion schedule.
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
    batch_runs = (
        run_batching
        and kernel.supports_hit_runs
        and (kernel.admits_all or kernel.pure_admission)
    )

    for start in range(0, n, chunk_size):
        stop = min(start + chunk_size, n)
        m = stop - start
        c_pages = pages[start:stop]
        c_sets = c_pages % n_sets
        c_write = is_write[start:stop]
        c_scores = scores[start:stop]
        base = start + index_offset
        if measure_from <= base:
            chunk_measured: bool | np.ndarray = True
        elif measure_from >= stop + index_offset:
            chunk_measured = False
        else:
            chunk_measured = (
                np.arange(m, dtype=np.int64) + base >= measure_from
            )

        # Run-length encoding: consecutive same-page accesses form a
        # run; the round machinery below sees only the first member
        # of each (the representative).  A density gate keeps the
        # machinery off low-repeat chunks where it cannot pay for
        # itself.
        runs: _ChunkRuns | None = None
        if batch_runs and m > 1:
            rep_mask = np.empty(m, dtype=bool)
            rep_mask[0] = True
            np.not_equal(c_pages[1:], c_pages[:-1], out=rep_mask[1:])
            rep_pos = np.nonzero(rep_mask)[0]
            if (
                m - rep_pos.size
                >= m * RUN_BATCH_MIN_FOLLOWER_FRACTION
            ):
                runs = _ChunkRuns(
                    rep_pos,
                    m,
                    base,
                    c_pages,
                    c_sets,
                    c_write,
                    c_scores,
                    chunk_measured,
                )

        # Same-set run collapse (mechanism 5): group contiguous
        # same-set runs into spans and make *spans* the round
        # elements.  Engages only when the kernel's hit updates
        # commute across ways and the chunk actually contains a
        # multi-run span; otherwise the rep-per-element path below
        # runs unchanged.
        spans = None
        if (
            runs is not None
            and set_run_collapse
            and kernel.supports_set_runs
            and (kernel.admits_all or kernel.pure_admission)
        ):
            rep_sets = c_sets[runs.rep_pos]
            n_reps = rep_sets.shape[0]
            new_span = np.empty(n_reps, dtype=bool)
            new_span[0] = True
            np.not_equal(
                rep_sets[1:], rep_sets[:-1], out=new_span[1:]
            )
            span_first = np.nonzero(new_span)[0]
            span_count = np.diff(np.append(span_first, n_reps))
            short = (span_count > 1) & (
                span_count < SET_RUN_MIN_SPAN_REPS
            )
            batch_shorts = False
            if short_span_batching and short.any():
                # The batched short-span resolver amortises over the
                # runs each round carries.  Rounds stack one span
                # per set, so the shorts spread across roughly as
                # many rounds as the deepest per-set short-span
                # stack; their run count over that depth estimates
                # runs-per-round.
                depth = int(
                    np.bincount(rep_sets[span_first[short]]).max()
                )
                batch_shorts = (
                    int(span_count[short].sum())
                    >= SHORT_SPAN_MIN_ROUND_REPS * depth
                )
            if batch_shorts:
                # Every multi-run span is a round element: long
                # spans get the per-span resolver, short ones the
                # round-wide batched resolver (mechanism 6).
                spans = (span_first, span_count)
            else:
                collapse = span_count >= SET_RUN_MIN_SPAN_REPS
                if collapse.any():
                    # Sub-threshold spans cost more to resolve in a
                    # per-span resolver than the per-element round
                    # machinery saves; expand them back into
                    # singleton elements (one per run, consecutive
                    # ranks -- same schedule the plain path would
                    # give them).
                    per_span = np.where(collapse, 1, span_count)
                    offsets = np.repeat(
                        np.cumsum(per_span) - per_span, per_span
                    )
                    within = np.arange(int(per_span.sum())) - offsets
                    spans = (
                        np.repeat(span_first, per_span) + within,
                        np.repeat(
                            np.where(collapse, span_count, 1),
                            per_span,
                        ),
                    )

        if spans is not None:
            span_first, span_count = spans
            bounds, seq, max_rank = _rank_rounds(
                rep_sets[span_first], n_sets
            )
            cum_len = np.concatenate(
                ([0], np.cumsum(runs.run_len))
            )
            span_weight = (
                cum_len[span_first + span_count]
                - cum_len[span_first]
            )
            rank = 0
            while rank < max_rank:
                round_spans = seq[bounds[rank] : bounds[rank + 1]]
                if (
                    int(span_weight[round_spans].sum())
                    < min_round_width
                ):
                    break
                single = span_count[round_spans] == 1
                singles = round_spans[single]
                if singles.size:
                    rep_rows = span_first[singles]
                    pos = runs.rep_pos[rep_rows]
                    idxs = pos + base
                    resident = np.ones(pos.shape[0], dtype=bool)
                    _process_round(
                        cache,
                        kernel,
                        stats,
                        c_pages[pos],
                        c_sets[pos],
                        c_write[pos],
                        c_scores[pos],
                        idxs,
                        chunk_measured
                        if isinstance(chunk_measured, bool)
                        else idxs >= measure_from,
                        scratch,
                        outcome=outcome,
                        outcome_base=index_offset,
                        resident=resident,
                    )
                    _resolve_runs(
                        cache,
                        kernel,
                        stats,
                        runs,
                        rep_rows,
                        c_sets[pos],
                        c_pages[pos],
                        resident,
                        outcome,
                        start,
                    )
                multi = round_spans[~single]
                if multi.size:
                    long_span = (
                        span_count[multi] >= SET_RUN_MIN_SPAN_REPS
                    )
                    shorts = multi[~long_span]
                    if shorts.size:
                        _resolve_short_spans(
                            cache,
                            kernel,
                            stats,
                            runs,
                            span_first[shorts],
                            span_count[shorts],
                            scratch,
                            chunk_measured,
                            measure_from,
                            outcome,
                            start,
                            index_offset,
                        )
                    for span_id in multi[long_span]:
                        _resolve_set_span(
                            cache,
                            kernel,
                            policy,
                            stats,
                            runs,
                            int(span_first[span_id]),
                            int(span_count[span_id]),
                            outcome,
                            start,
                            index_offset,
                            measure_from,
                        )
                rank += 1
            if rank < max_rank:
                remaining = seq[bounds[rank] :]
                remaining_reps = _ranges(
                    span_first[remaining], span_count[remaining]
                )
                tail_positions = np.sort(
                    _ranges(
                        runs.rep_pos[remaining_reps],
                        runs.run_len[remaining_reps],
                    )
                )
                _run_scalar_tail(
                    cache, policy, kernel, stats,
                    c_pages, c_write, c_scores, tail_positions,
                    base, measure_from, outcome, index_offset,
                )
            continue

        sel = runs.rep_pos if runs is not None else None
        sel_sets = c_sets if sel is None else c_sets[sel]
        bounds, seq, max_rank = _rank_rounds(sel_sets, n_sets)
        round_sizes = np.diff(bounds)

        sel_pos = seq if sel is None else sel[seq]
        r_pages = c_pages[sel_pos]
        r_sets = c_sets[sel_pos]
        r_write = c_write[sel_pos]
        r_scores = c_scores[sel_pos]
        r_idx = sel_pos + base
        if isinstance(chunk_measured, bool):
            r_measured: bool | np.ndarray = chunk_measured
        else:
            r_measured = r_idx >= measure_from
        r_weight = (
            None if runs is None else runs.run_len[seq]
        )

        rank = 0
        while rank < max_rank:
            lo = bounds[rank]
            hi = bounds[rank + 1]
            weight = (
                int(round_sizes[rank])
                if r_weight is None
                else int(r_weight[lo:hi].sum())
            )
            if weight < min_round_width:
                break
            resident = (
                None if runs is None else np.ones(hi - lo, dtype=bool)
            )
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
                resident=resident,
            )
            if runs is not None:
                _resolve_runs(
                    cache,
                    kernel,
                    stats,
                    runs,
                    seq[lo:hi],
                    r_sets[lo:hi],
                    r_pages[lo:hi],
                    resident,
                    outcome,
                    start,
                )
            rank += 1

        if rank < max_rank:
            # Scalar tail: every access that belongs to a `rank`-th-
            # or-later run of its set, in access order.  Per-set
            # order is preserved (their earlier touches were the
            # vector rounds above), which is the only ordering that
            # matters.
            if runs is None:
                tail_positions = np.sort(seq[bounds[rank] :])
            else:
                tail_reps = seq[bounds[rank] :]
                tail_positions = np.sort(
                    _ranges(
                        runs.rep_pos[tail_reps],
                        runs.run_len[tail_reps],
                    )
                )
            _run_scalar_tail(
                cache, policy, kernel, stats,
                c_pages, c_write, c_scores, tail_positions,
                base, measure_from, outcome, index_offset,
            )

    kernel.finalize()
    return stats
