"""Set-associative DRAM cache model and its trace-driven simulator.

This is the software twin of the paper's cache control engine
(Sec. 4.2): a set-associative cache of 4 KB blocks over the device
DRAM, with cache tags and per-block policy metadata held in an
on-board table.  The paper's case-study geometry -- 64 MB capacity,
4 KB blocks, associativity 8 (Sec. 5.1) -- is the default
:class:`CacheGeometry`.

Cache state lives in four ``(n_sets, ways)`` numpy planes (tags,
dirty, meta, stamp).  The reference :func:`simulate` below is a
scalar access-at-a-time loop -- the executable specification
:mod:`repro.cache.simulate_fast` is differential-tested against --
and mirrors the tag plane into plain Python lists for the duration
of the loop, because list indexing is several times faster than
numpy scalar extraction at the 8-entry-way shape.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from repro.cache.policies.base import ReplacementPolicy
from repro.cache.stats import (
    OUTCOME_BYPASS,
    OUTCOME_DIRTY_EVICT,
    OUTCOME_EVICT,
    OUTCOME_FILL,
    OUTCOME_HIT,
    CacheStats,
)

#: Tag value marking an empty way.
INVALID = -1


@dataclass(frozen=True)
class CacheGeometry:
    """Cache shape parameters (Sec. 5.1 case study defaults).

    Attributes
    ----------
    capacity_bytes:
        Total DRAM cache capacity (default 64 MB).
    block_bytes:
        Cache block size; fixed to the 4 KB SSD page in the paper
        (Challenge 2: granularity mismatch).
    associativity:
        Ways per set (default 8).
    """

    capacity_bytes: int = 64 * 1024 * 1024
    block_bytes: int = 4096
    associativity: int = 8

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        if self.block_bytes <= 0:
            raise ValueError("block_bytes must be positive")
        if self.associativity <= 0:
            raise ValueError("associativity must be positive")
        if self.capacity_bytes % self.block_bytes != 0:
            raise ValueError(
                "capacity_bytes must be a multiple of block_bytes"
            )
        if self.n_blocks % self.associativity != 0:
            raise ValueError(
                "block count must be a multiple of associativity"
            )

    @property
    def n_blocks(self) -> int:
        """Total number of cache blocks."""
        return self.capacity_bytes // self.block_bytes

    @property
    def n_sets(self) -> int:
        """Number of sets."""
        return self.n_blocks // self.associativity


class SetAssociativeCache:
    """Tag/metadata state of a set-associative cache.

    Data blocks themselves are never modelled -- exactly like the
    hardware, which moves only tags and GMM scores into the on-board
    buffer (Sec. 4.2).  Two float metadata planes (``meta`` and
    ``stamp``) are maintained per way; each policy assigns them its own
    meaning (GMM score, LRU counter, reference bit, ...).

    All four planes are ``(n_sets, ways)`` numpy arrays, so whole
    rows copy in and out at once; scalar code indexes them exactly
    like a list-of-lists (``cache.meta[set_index][way]``).
    """

    def __init__(self, geometry: CacheGeometry | None = None) -> None:
        self.geometry = geometry if geometry is not None else CacheGeometry()
        n_sets = self.geometry.n_sets
        ways = self.geometry.associativity
        self.tags = np.full((n_sets, ways), INVALID, dtype=np.int64)
        self.dirty = np.zeros((n_sets, ways), dtype=bool)
        self.meta = np.zeros((n_sets, ways), dtype=np.float64)
        self.stamp = np.zeros((n_sets, ways), dtype=np.float64)

    # ------------------------------------------------------------------
    # Address mapping
    # ------------------------------------------------------------------
    def set_index(self, page: int) -> int:
        """Set holding ``page`` (page modulo set count)."""
        return page % self.geometry.n_sets

    # ------------------------------------------------------------------
    # Lookup and fill
    # ------------------------------------------------------------------
    def lookup(self, page: int) -> tuple[int, int | None]:
        """Locate ``page``; returns ``(set_index, way | None)``."""
        index = page % self.geometry.n_sets
        match = np.nonzero(self.tags[index] == page)[0]
        if match.size == 0:
            return index, None
        return index, int(match[0])

    def find_invalid_way(self, set_index: int) -> int | None:
        """First empty way in a set, or None when the set is full."""
        match = np.nonzero(self.tags[set_index] == INVALID)[0]
        if match.size == 0:
            return None
        return int(match[0])

    def fill(
        self,
        set_index: int,
        way: int,
        page: int,
        dirty: bool,
        meta: float,
        stamp: float,
    ) -> None:
        """Install ``page`` into ``(set_index, way)``."""
        self.tags[set_index][way] = page
        self.dirty[set_index][way] = dirty
        self.meta[set_index][way] = meta
        self.stamp[set_index][way] = stamp

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def occupancy(self) -> int:
        """Number of valid blocks currently cached (one array scan)."""
        return int(np.count_nonzero(self.tags != INVALID))

    def resident_pages(self) -> set[int]:
        """Set of pages currently cached (for tests/analysis)."""
        valid = self.tags[self.tags != INVALID]
        return {int(tag) for tag in valid}

    def __repr__(self) -> str:
        g = self.geometry
        return (
            f"SetAssociativeCache(capacity={g.capacity_bytes >> 20} MiB,"
            f" block={g.block_bytes} B, ways={g.associativity},"
            f" occupancy={self.occupancy()}/{g.n_blocks})"
        )


def _validate_stream(
    pages: np.ndarray,
    is_write: np.ndarray,
    scores: np.ndarray | None,
    warmup_fraction: float,
    index_offset: int = 0,
    outcome: np.ndarray | None = None,
    fill_scores: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, np.ndarray | None]:
    """Shared input validation for both simulator paths.

    Returns ``(pages, is_write, scores, measure_from, fill_scores)``
    with scores defaulted to zeros and ``fill_scores`` left ``None``
    when omitted.  ``measure_from`` is an *absolute* access index
    (``index_offset`` plus the warm-up cut within this call).
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
    if fill_scores is not None:
        fill_scores = np.asarray(fill_scores, dtype=np.float64)
        if fill_scores.shape != pages.shape:
            raise ValueError(
                "fill_scores and pages must have the same shape"
            )
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError("warmup_fraction must be in [0, 1)")
    if index_offset < 0:
        raise ValueError("index_offset must be >= 0")
    if outcome is not None:
        if not isinstance(outcome, np.ndarray):
            raise ValueError("outcome must be a numpy array")
        if outcome.shape != pages.shape:
            raise ValueError("outcome and pages must have the same shape")
        if outcome.dtype != np.uint8:
            raise ValueError("outcome must have dtype uint8")
    measure_from = index_offset + int(pages.shape[0] * warmup_fraction)
    return pages, is_write, scores, measure_from, fill_scores


def place(
    cache: SetAssociativeCache,
    policy: ReplacementPolicy,
    set_tags: list[int],
    set_index: int,
    page: int,
    write: bool,
    score: float,
    access_index: int,
) -> int:
    """Install a missing ``page``: the first invalid way, else the
    policy's victim.

    ``set_tags`` is the caller's list mirror of the set's tag row and
    is kept in sync.  Returns the fill's code: ``OUTCOME_FILL``,
    ``OUTCOME_EVICT`` or ``OUTCOME_DIRTY_EVICT``.
    """
    if INVALID in set_tags:
        way = set_tags.index(INVALID)
        code = OUTCOME_FILL
    else:
        way = policy.select_victim(cache, set_index, access_index)
        code = (
            OUTCOME_DIRTY_EVICT
            if cache.dirty[set_index][way]
            else OUTCOME_EVICT
        )
    set_tags[way] = page
    cache.fill(
        set_index,
        way,
        page,
        write,
        policy.fill_meta(page, score, access_index),
        float(access_index),
    )
    return code


def access_step(
    cache: SetAssociativeCache,
    policy: ReplacementPolicy,
    set_tags: list[int],
    set_index: int,
    page: int,
    write: bool,
    score: float,
    access_index: int,
    fill_score: float | None = None,
) -> int:
    """One access through the Sec. 3.2 flow; returns its ``OUTCOME_*``.

    A hit is served from DRAM (the GMM is bypassed); a miss asks the
    policy whether to cache the page at all and, when admitted,
    :func:`place` fills it.  ``set_tags`` is the caller's list mirror
    of the set's tag row and is kept in sync; dirty/meta/stamp go
    through the cache's numpy planes so policy hooks observe them.
    ``fill_score`` (default: ``score``) is the score the fill hands
    the policy's ``fill_meta``.
    """
    try:
        way = set_tags.index(page)
    except ValueError:
        pass
    else:
        policy.on_hit(cache, set_index, way, access_index, score)
        if write:
            cache.dirty[set_index][way] = True
        return OUTCOME_HIT
    if not policy.admit(page, score, write, access_index):
        return OUTCOME_BYPASS
    return place(
        cache, policy, set_tags, set_index, page, write,
        score if fill_score is None else fill_score, access_index,
    )


def _scalar_span(
    cache: SetAssociativeCache,
    policy: ReplacementPolicy,
    tags_list: list[list[int]] | Mapping[int, list[int]],
    page_list: list[int],
    write_list: list[bool],
    score_list: list[float],
    index_list,
    measure_from: int,
    stats: CacheStats,
    outcome: np.ndarray | None = None,
    outcome_base: int = 0,
    fill_list: list[float] | None = None,
) -> None:
    """Exact access-at-a-time simulation of one request span.

    ``page_list``/``write_list``/``score_list`` are the span's
    requests as plain Python scalars, and ``fill_list`` (default:
    ``score_list``) the score each fill stores; ``index_list`` (any
    indexable sequence, e.g. a ``range`` or a list) gives the
    absolute access index of each position.  ``tags_list`` is a
    list-of-lists mirror of ``cache.tags`` kept in sync by
    :func:`access_step` (fast lookups).

    When ``outcome`` is given, each access's ``OUTCOME_*`` code is
    written at ``outcome[access_index - outcome_base]``.

    This is the executable specification: the list loop in
    :mod:`repro.cache.simulate_fast` must match it bit for bit, and
    its counters are what
    :func:`~repro.cache.stats.stats_from_outcomes` must rebuild from
    the codes.
    """
    n_sets = cache.geometry.n_sets
    record = outcome is not None
    for offset in range(len(page_list)):
        access_index = index_list[offset]
        page = page_list[offset]
        write = write_list[offset]
        set_index = page % n_sets
        code = access_step(
            cache, policy, tags_list[set_index], set_index, page,
            write, score_list[offset], access_index,
            None if fill_list is None else fill_list[offset],
        )
        if record:
            outcome[access_index - outcome_base] = code
        if access_index < measure_from:
            continue
        if code == OUTCOME_HIT:
            stats.hits += 1
            if write:
                stats.write_hits += 1
            continue
        # Miss: SSD must be accessed either way; the policy decided
        # whether the page also got cached.
        stats.misses += 1
        if write:
            stats.write_misses += 1
        if code == OUTCOME_BYPASS:
            stats.bypasses += 1
            if write:
                stats.bypassed_writes += 1
            continue
        stats.fills += 1
        if code != OUTCOME_FILL:
            stats.evictions += 1
            if code == OUTCOME_DIRTY_EVICT:
                stats.dirty_evictions += 1


def simulate(
    cache: SetAssociativeCache,
    policy: ReplacementPolicy,
    pages: np.ndarray,
    is_write: np.ndarray,
    scores: np.ndarray | None = None,
    warmup_fraction: float = 0.0,
    index_offset: int = 0,
    outcome: np.ndarray | None = None,
    fill_scores: np.ndarray | None = None,
) -> CacheStats:
    """Drive a cache/policy pair over a page-level request stream.

    Implements the Sec. 3.2 flow: a hit is served from DRAM (the GMM is
    bypassed); on a miss the policy decides admission using the
    precomputed GMM score, and -- when the set is full -- selects the
    victim; a dirty victim costs an SSD write-back.

    This is the *reference* scalar path.  The list-loop engine
    lives in :func:`repro.cache.simulate_fast.simulate_fast` and
    produces bit-identical counters and final cache state.

    Parameters
    ----------
    cache:
        Cache state (mutated in place; pass a fresh instance per run).
    policy:
        Replacement/admission policy.
    pages:
        Page index per request.
    is_write:
        Write flag per request.
    scores:
        Policy score per request (GMM density); zeros when omitted.
        Scores are precomputed for the whole stream because the GMM is
        a pure function of ``(page, timestamp)`` -- mirroring the
        pipelined engine, which computes them independently per request.
    warmup_fraction:
        Leading fraction of requests that update cache state but are
        excluded from the returned counters.
    index_offset:
        Absolute access index of the first request.  Non-zero offsets
        make the call *resumable*: the serving loop replays a stream
        in chunks against the same live cache, and recency stamps /
        policy hooks keep seeing the global access order.  (Policies
        that pre-index the full trace, e.g. Belady, assume offset 0.)
    outcome:
        Optional ``uint8`` buffer of the call's length; when given,
        each access's ``OUTCOME_*`` code (see
        :mod:`repro.cache.stats`) is recorded at its call-local
        position, enabling exact per-tenant accounting downstream.
    fill_scores:
        Score per request that a fill hands the policy's
        ``fill_meta`` (the block's stored eviction score); ``None``
        means ``scores``.  The combined Fig. 6 strategy admits on the
        request scores and stores the time-marginalised page scores.

    Returns
    -------
    CacheStats
        Counters over the measured (post-warm-up) region.
    """
    pages, is_write, scores, measure_from, fill_scores = _validate_stream(
        pages, is_write, scores, warmup_fraction, index_offset, outcome,
        fill_scores,
    )
    stats = CacheStats()
    tags_list = [
        [int(tag) for tag in ways] for ways in cache.tags
    ]
    page_list = [int(p) for p in pages]
    write_list = [bool(w) for w in is_write]
    score_list = [float(s) for s in scores]
    _scalar_span(
        cache,
        policy,
        tags_list,
        page_list,
        write_list,
        score_list,
        range(index_offset, index_offset + len(page_list)),
        measure_from,
        stats,
        outcome=outcome,
        outcome_base=index_offset,
        fill_list=(
            None if fill_scores is None
            else [float(s) for s in fill_scores]
        ),
    )
    return stats
