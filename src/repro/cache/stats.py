"""Cache simulation counters and derived metrics."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Per-access outcome codes recorded by the simulators when an
#: ``outcome`` buffer is passed (see
#: :func:`repro.cache.setassoc.simulate`).  Every access receives
#: exactly one code, so :func:`stats_from_outcomes` can rebuild the
#: full :class:`CacheStats` for any subset of the stream (per tenant,
#: per phase, per SLO class) after a single simulation pass.
OUTCOME_FILL = 0  #: miss, admitted, filled an invalid way
OUTCOME_HIT = 1  #: served from the DRAM cache
OUTCOME_BYPASS = 2  #: miss, refused by the admission policy
OUTCOME_EVICT = 3  #: miss, admitted, evicted a clean victim
OUTCOME_DIRTY_EVICT = 4  #: miss, admitted, evicted a dirty victim


@dataclass
class CacheStats:
    """Counters collected by :func:`repro.cache.setassoc.simulate`.

    All counters refer to the *measured* portion of a run (accesses
    after the warm-up cutoff); the cache itself is warmed by the
    preceding accesses.

    Attributes
    ----------
    hits:
        Requests served from the DRAM cache.
    misses:
        Requests that had to reach the SSD (includes bypasses).
    bypasses:
        Misses the admission policy chose *not* to cache (served
        SSD -> host directly, Sec. 3.2).
    bypassed_writes:
        The subset of bypasses that were writes; these pay the SSD
        *write* latency because the data goes straight to flash.
    fills:
        Misses that allocated a cache block.
    evictions:
        Fills that displaced a valid block.
    dirty_evictions:
        Evictions whose victim was dirty and required an SSD write-back
        (the 975 us path of Sec. 5.3).
    write_hits / write_misses:
        The read/write split of hits and misses, needed by the latency
        model (SSD writes are ~12x slower than reads).
    """

    hits: int = 0
    misses: int = 0
    bypasses: int = 0
    bypassed_writes: int = 0
    fills: int = 0
    evictions: int = 0
    dirty_evictions: int = 0
    write_hits: int = 0
    write_misses: int = 0

    @property
    def accesses(self) -> int:
        """Total measured requests."""
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        """Misses over accesses (0.0 for an empty run)."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    @property
    def hit_rate(self) -> float:
        """Hits over accesses (0.0 for an empty run)."""
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    @property
    def bypass_rate(self) -> float:
        """Bypasses over misses (0.0 when there are no misses)."""
        if self.misses == 0:
            return 0.0
        return self.bypasses / self.misses

    @property
    def dirty_eviction_rate(self) -> float:
        """Dirty evictions per miss (drives the write-back penalty)."""
        if self.misses == 0:
            return 0.0
        return self.dirty_evictions / self.misses

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Sum two counter sets (e.g. across trace shards)."""
        return CacheStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            bypasses=self.bypasses + other.bypasses,
            bypassed_writes=self.bypassed_writes + other.bypassed_writes,
            fills=self.fills + other.fills,
            evictions=self.evictions + other.evictions,
            dirty_evictions=self.dirty_evictions + other.dirty_evictions,
            write_hits=self.write_hits + other.write_hits,
            write_misses=self.write_misses + other.write_misses,
        )

    def as_dict(self) -> dict:
        """Flat dict of all counters plus derived rates."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "bypasses": self.bypasses,
            "bypassed_writes": self.bypassed_writes,
            "fills": self.fills,
            "evictions": self.evictions,
            "dirty_evictions": self.dirty_evictions,
            "write_hits": self.write_hits,
            "write_misses": self.write_misses,
            "miss_rate": self.miss_rate,
            "hit_rate": self.hit_rate,
            "bypass_rate": self.bypass_rate,
            "dirty_eviction_rate": self.dirty_eviction_rate,
        }


#: Number of ``OUTCOME_*`` codes.
N_OUTCOMES = 5


def outcome_counts(
    outcomes: np.ndarray,
    is_write: np.ndarray,
    measured: np.ndarray | None = None,
    labels: np.ndarray | None = None,
    n_labels: int = 1,
) -> np.ndarray:
    """Accesses per ``(label, outcome code, write flag)``, counted in
    one ``bincount`` pass; an int array of shape
    ``(n_labels, N_OUTCOMES, 2)``.

    ``measured`` is an optional boolean mask of the accesses to
    count.  ``labels`` (non-negative ints below ``n_labels``, one per
    counted access) splits the counts, e.g. per shard and tenant of a
    serving chunk; ``None`` is one label.  :func:`stats_from_counts` turns any
    sum of label slices into :class:`CacheStats`.
    """
    outcomes = np.asarray(outcomes)
    is_write = np.asarray(is_write, dtype=bool)
    if outcomes.shape != is_write.shape:
        raise ValueError("outcomes and is_write must have the same shape")
    if measured is not None:
        measured = np.asarray(measured, dtype=bool)
        if measured.shape != outcomes.shape:
            raise ValueError(
                "measured mask and outcomes must have the same shape"
            )
        outcomes, is_write = outcomes[measured], is_write[measured]
    if outcomes.size and int(outcomes.max()) >= N_OUTCOMES:
        raise ValueError("outcome codes must be OUTCOME_* values")
    key = outcomes.astype(np.intp)
    if labels is not None:
        key += np.asarray(labels) * N_OUTCOMES
    key *= 2
    key += is_write
    counts = np.bincount(key, minlength=n_labels * N_OUTCOMES * 2)
    return counts.reshape(n_labels, N_OUTCOMES, 2)


def stats_from_counts(counts: np.ndarray) -> CacheStats:
    """:class:`CacheStats` from one ``(N_OUTCOMES, 2)`` count table
    (:func:`outcome_counts`, one label's slice or a sum of them)."""
    counts = counts.tolist()
    hits = sum(counts[OUTCOME_HIT])
    bypasses = sum(counts[OUTCOME_BYPASS])
    dirty = sum(counts[OUTCOME_DIRTY_EVICT])
    misses = sum(map(sum, counts)) - hits
    write_hits = counts[OUTCOME_HIT][1]
    return CacheStats(
        hits=hits,
        misses=misses,
        bypasses=bypasses,
        bypassed_writes=counts[OUTCOME_BYPASS][1],
        fills=misses - bypasses,
        evictions=sum(counts[OUTCOME_EVICT]) + dirty,
        dirty_evictions=dirty,
        write_hits=write_hits,
        write_misses=sum(row[1] for row in counts) - write_hits,
    )


def stats_from_outcomes(
    outcomes: np.ndarray,
    is_write: np.ndarray,
    measured: np.ndarray | None = None,
) -> CacheStats:
    """Rebuild :class:`CacheStats` from recorded per-access outcomes.

    Parameters
    ----------
    outcomes:
        Outcome code per access (the ``OUTCOME_*`` constants), as
        recorded by a simulator ``outcome`` buffer.
    is_write:
        Write flag per access (same shape as ``outcomes``).
    measured:
        Optional boolean mask selecting the accesses to count (a
        post-warm-up view of one simulation pass).

    Because every access carries exactly one code, the counters built
    here over the *full* stream equal the simulator's own counters for
    a ``warmup_fraction=0`` run, and any partition of the stream sums
    back to the whole (asserted by the test suite).  This is the
    one-label case of :func:`outcome_counts`.
    """
    return stats_from_counts(outcome_counts(outcomes, is_write, measured)[0])
