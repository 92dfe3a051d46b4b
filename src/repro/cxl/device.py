"""The CXL memory-expansion device: DRAM cache over SSD.

This is the device half of Fig. 1: an SSD (~TB) exposed through
CXL.mem, fronted by the device-DRAM cache that ICGMM manages.  The
class wraps the cache substrate into a stateful per-request interface
returning service latencies, which the router composes with the link
model into end-to-end access times.

Accounting is outcome-based: every access is classified with the same
``OUTCOME_*`` codes the trace simulators record, and :attr:`
CxlMemoryDevice.stats` is rebuilt from those codes via
:func:`repro.cache.stats.stats_from_outcomes` -- the device no longer
hand-rolls a fourth copy of the counter arithmetic, so its tallies
are consistent with :class:`~repro.cache.stats.CacheStats` by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cache.policies.base import ReplacementPolicy
from repro.cache.setassoc import SetAssociativeCache
from repro.cache.stats import (
    OUTCOME_BYPASS,
    OUTCOME_DIRTY_EVICT,
    OUTCOME_EVICT,
    OUTCOME_FILL,
    OUTCOME_HIT,
    CacheStats,
    stats_from_outcomes,
)
from repro.hardware.ssd import SsdLatencyEmulator

#: Device DRAM service time for a cache hit (Sec. 5.3: 1 us).
DEVICE_DRAM_HIT_NS = 1_000


@dataclass(frozen=True)
class DeviceAccessResult:
    """Outcome of one device access.

    Attributes
    ----------
    latency_ns:
        Device-internal service time (excluding the CXL link).
    hit:
        Whether the DRAM cache served the request.
    bypassed:
        Whether an admission policy refused to cache the missing page.
    outcome:
        The access's ``OUTCOME_*`` classification (see
        :mod:`repro.cache.stats`).
    """

    latency_ns: int
    hit: bool
    bypassed: bool
    outcome: int


class CxlMemoryDevice:
    """SSD-backed memory expansion device with a managed DRAM cache.

    Parameters
    ----------
    cache:
        The device DRAM cache tag store.
    policy:
        The ICGMM (or baseline) cache policy.
    ssd:
        SSD latency emulator backing the cache.
    hit_latency_ns:
        DRAM cache service time on a hit.

    The full per-access ``OUTCOME_*`` / write record is retained: it
    is what the differential parity suites re-account against.
    """

    def __init__(
        self,
        cache: SetAssociativeCache,
        policy: ReplacementPolicy,
        ssd: SsdLatencyEmulator | None = None,
        hit_latency_ns: int = DEVICE_DRAM_HIT_NS,
    ) -> None:
        if hit_latency_ns <= 0:
            raise ValueError("hit_latency_ns must be positive")
        self.cache = cache
        self.policy = policy
        self.ssd = ssd if ssd is not None else SsdLatencyEmulator()
        self.hit_latency_ns = hit_latency_ns
        self._outcomes: list[int] = []
        self._writes: list[bool] = []
        self._access_index = 0
        self._stats_cache: tuple[int, CacheStats] | None = None

    @property
    def stats(self) -> CacheStats:
        """Counters rebuilt from the recorded per-access outcomes.

        Memoised per history length, so polling between accesses is
        O(1); only the first read after new traffic pays the rebuild.
        """
        n = len(self._outcomes)
        if self._stats_cache is None or self._stats_cache[0] != n:
            self._stats_cache = (
                n,
                stats_from_outcomes(
                    np.asarray(self._outcomes, dtype=np.uint8),
                    np.asarray(self._writes, dtype=bool),
                ),
            )
        return self._stats_cache[1]

    def outcome_record(self) -> tuple[np.ndarray, np.ndarray]:
        """The per-access ``(outcomes, is_write)`` arrays so far."""
        return (
            np.asarray(self._outcomes, dtype=np.uint8),
            np.asarray(self._writes, dtype=bool),
        )

    def _record(self, outcome: int, is_write: bool) -> None:
        """Append one classified access to the record."""
        self._outcomes.append(outcome)
        self._writes.append(is_write)

    def access(
        self,
        page: int,
        is_write: bool,
        score: float = 0.0,
        fill_score: float | None = None,
    ) -> DeviceAccessResult:
        """Serve one 4 KB page request; returns internal latency.

        Follows the Sec. 3.2 flow exactly: hit -> DRAM; miss -> SSD
        read plus (admission permitting) a fill with possible dirty
        write-back; bypassed writes program flash directly.
        ``fill_score`` (default: ``score``) is what a fill hands the
        policy's ``fill_meta``.
        """
        index = self._access_index
        self._access_index += 1
        set_index, way = self.cache.lookup(page)

        if way is not None:
            self.policy.on_hit(self.cache, set_index, way, index, score)
            if is_write:
                self.cache.dirty[set_index][way] = True
            self._record(OUTCOME_HIT, bool(is_write))
            return DeviceAccessResult(
                latency_ns=self.hit_latency_ns,
                hit=True,
                bypassed=False,
                outcome=OUTCOME_HIT,
            )

        latency = self.ssd.read_latency_ns()

        if not self.policy.admit(page, score, is_write, index):
            if is_write:
                latency += self.ssd.write_latency_ns()
            self._record(OUTCOME_BYPASS, bool(is_write))
            return DeviceAccessResult(
                latency_ns=latency,
                hit=False,
                bypassed=True,
                outcome=OUTCOME_BYPASS,
            )

        outcome = OUTCOME_FILL
        victim = self.cache.find_invalid_way(set_index)
        if victim is None:
            victim = self.policy.select_victim(
                self.cache, set_index, index
            )
            if self.cache.dirty[set_index][victim]:
                outcome = OUTCOME_DIRTY_EVICT
                latency += self.ssd.write_latency_ns()
            else:
                outcome = OUTCOME_EVICT
        self.cache.fill(
            set_index,
            victim,
            page,
            is_write,
            self.policy.fill_meta(
                page, score if fill_score is None else fill_score, index
            ),
            float(index),
        )
        self._record(outcome, bool(is_write))
        return DeviceAccessResult(
            latency_ns=latency, hit=False, bypassed=False, outcome=outcome
        )
