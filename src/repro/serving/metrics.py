"""Rolling per-shard / per-tenant serving metrics.

The serving loop records one :class:`~repro.cache.stats.CacheStats`
delta per key (shard or tenant) per chunk, reconstructed exactly from
the simulator's per-access outcome codes.  This module keeps a
bounded window of those deltas per key and derives the two numbers an
operator watches: the rolling miss rate and the rolling average
access time under the Table 1 :class:`~repro.hardware.latency.LatencyModel`.

The chaos harness (``repro.chaos``) adds a second lens: deltas served
in *degraded mode* (failover, SSD-direct after stall-retry exhaustion,
link degradation) are recorded with ``degraded=True`` and aggregated
separately, and discrete failure/recovery events
(:class:`FailureEvent`) land on the same per-key timeline so
time-to-detect / time-to-recover fall straight out of the record.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.cache.stats import CacheStats
from repro.hardware.latency import LatencyModel


@dataclass(frozen=True)
class FailureEvent:
    """One failure/recovery transition on a key's timeline.

    ``kind`` names the transition (e.g. ``"device-down"``,
    ``"device-restored"``, ``"stall-degraded"``, ``"refresh-failed"``,
    ``"breaker-open"``); ``chunk_index`` is the logical-clock tick it
    was observed at.
    """

    key: str
    kind: str
    chunk_index: int
    info: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "key": self.key,
            "kind": self.kind,
            "chunk_index": int(self.chunk_index),
            **{k: v for k, v in sorted(self.info.items())},
        }


class RollingMetrics:
    """Windowed metric aggregation keyed by shard/tenant label.

    Parameters
    ----------
    latency_model:
        Table 1 pricing model used for the latency view.
    window_chunks:
        Chunk deltas retained per key.
    """

    def __init__(
        self,
        latency_model: LatencyModel | None = None,
        window_chunks: int = 8,
        ewma_alpha: float = 0.25,
    ) -> None:
        if window_chunks < 1:
            raise ValueError("window_chunks must be >= 1")
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        self.latency_model = (
            latency_model if latency_model is not None else LatencyModel()
        )
        self.window_chunks = int(window_chunks)
        self.ewma_alpha = float(ewma_alpha)
        self._windows: dict[str, deque[CacheStats]] = {}
        self._totals: dict[str, CacheStats] = {}
        self._degraded: dict[str, CacheStats] = {}
        self._events: list[FailureEvent] = []
        self._ewma_latency_ns: dict[str, float] = {}
        self._ewma_miss: dict[str, float] = {}

    def record(
        self, key: str, stats: CacheStats, degraded: bool = False
    ) -> None:
        """Append one chunk's counter delta for ``key``.

        ``degraded=True`` marks the delta as served in degraded mode
        (failover target, SSD-direct after retry exhaustion, degraded
        link); it still lands in the rolling window and totals, and
        is *additionally* aggregated under the degraded lens.
        """
        window = self._windows.get(key)
        if window is None:
            window = deque(maxlen=self.window_chunks)
            self._windows[key] = window
            self._totals[key] = CacheStats()
        window.append(stats)
        self._totals[key] = self._totals[key].merge(stats)
        if degraded:
            self._degraded[key] = self._degraded.get(
                key, CacheStats()
            ).merge(stats)

    def record_timed(
        self,
        key: str,
        stats: CacheStats,
        time_ns: int,
        degraded: bool = False,
    ) -> None:
        """Record a chunk delta with its *priced* service time.

        On top of :meth:`record`, maintains exponentially-weighted
        moving averages of per-access latency and miss rate for
        ``key`` -- the signals
        :class:`repro.serving.health.FleetHealthMonitor` compares
        against the fleet median.  ``time_ns`` is the chunk's total
        service time under the caller's pricing model *including* any
        degraded-mode premiums (fail-slow ramps, link windows), so a
        slowly sickening device is visible here even though its cache
        counters look healthy.  Chunks with zero accesses leave the
        EWMAs untouched.
        """
        self.record(key, stats, degraded=degraded)
        if stats.accesses == 0:
            return
        latency = time_ns / stats.accesses
        miss = stats.miss_rate
        alpha = self.ewma_alpha
        prev_latency = self._ewma_latency_ns.get(key)
        if prev_latency is None:
            self._ewma_latency_ns[key] = latency
            self._ewma_miss[key] = miss
        else:
            self._ewma_latency_ns[key] = (
                alpha * latency + (1.0 - alpha) * prev_latency
            )
            self._ewma_miss[key] = (
                alpha * miss
                + (1.0 - alpha) * self._ewma_miss[key]
            )

    def ewma_latency_ns(self, key: str) -> float | None:
        """EWMA per-access latency of ``key`` (None before any
        timed observation)."""
        return self._ewma_latency_ns.get(key)

    def ewma_miss_rate(self, key: str) -> float | None:
        """EWMA miss rate of ``key`` (None before any timed
        observation)."""
        return self._ewma_miss.get(key)

    def reset_ewma(self, key: str) -> None:
        """Drop ``key``'s EWMAs so the next observation starts fresh.

        The health monitor rebases a device's estimate when it enters
        probation: the quarantine froze the sick EWMA, and probe
        chunks must be judged on current behaviour, not history.
        """
        self._ewma_latency_ns.pop(key, None)
        self._ewma_miss.pop(key, None)

    def keys(self) -> list[str]:
        """All keys seen so far, in first-seen order."""
        return list(self._windows)

    def window(self, key: str) -> CacheStats:
        """Merged counters over the rolling window of ``key``."""
        merged = CacheStats()
        for stats in self._windows.get(key, ()):
            merged = merged.merge(stats)
        return merged

    def total(self, key: str) -> CacheStats:
        """Merged counters over the whole run of ``key``."""
        return self._totals.get(key, CacheStats())

    def miss_rate(self, key: str) -> float:
        """Rolling miss rate of ``key`` (0.0 on an empty window)."""
        window = self.window(key)
        if window.accesses == 0:
            return 0.0
        return window.miss_rate

    def latency_us(self, key: str) -> float:
        """Rolling Table 1 average access time (0.0 on empty window)."""
        window = self.window(key)
        if window.accesses == 0:
            return 0.0
        return self.latency_model.average_access_time_us(window)

    # ------------------------------------------------------------------
    # Degraded-mode lens + failure/recovery events (chaos harness)
    # ------------------------------------------------------------------
    def degraded_total(self, key: str) -> CacheStats:
        """Merged counters of ``key``'s degraded-mode deltas."""
        return self._degraded.get(key, CacheStats())

    def degraded_miss_rate(self, key: str) -> float:
        """Miss rate over ``key``'s degraded windows (0.0 if none)."""
        total = self.degraded_total(key)
        if total.accesses == 0:
            return 0.0
        return total.miss_rate

    def record_event(
        self, key: str, kind: str, chunk_index: int, **info
    ) -> None:
        """Append one failure/recovery transition for ``key``."""
        self._events.append(
            FailureEvent(
                key=key, kind=kind, chunk_index=chunk_index, info=info
            )
        )

    def events(self, key: str | None = None) -> list[FailureEvent]:
        """Recorded transitions, optionally filtered by key."""
        if key is None:
            return list(self._events)
        return [event for event in self._events if event.key == key]

    def recovery_latencies(
        self, down_kind: str, up_kind: str
    ) -> list[int]:
        """Chunks between each ``down_kind`` and the next ``up_kind``.

        Pairs transitions per key in timeline order; an outage still
        open at the end of the record contributes nothing.  This is
        the time-to-recover view (time-to-detect is zero by
        construction: faults are observed at the chunk they start).
        """
        open_since: dict[str, int] = {}
        latencies: list[int] = []
        for event in self._events:
            if event.kind == down_kind:
                open_since.setdefault(event.key, event.chunk_index)
            elif event.kind == up_kind and event.key in open_since:
                latencies.append(
                    event.chunk_index - open_since.pop(event.key)
                )
        return latencies

    def snapshot(self) -> dict[str, dict[str, float]]:
        """Rolling miss rate / latency / traffic share per key."""
        out: dict[str, dict[str, float]] = {}
        windows = {key: self.window(key) for key in self._windows}
        total_accesses = sum(
            window.accesses for window in windows.values()
        )
        for key, window in windows.items():
            out[key] = {
                "miss_rate": window.miss_rate,
                "latency_us": self.latency_model.average_access_time_us(
                    window
                ),
                "accesses": float(window.accesses),
                "traffic_share": (
                    window.accesses / total_accesses
                    if total_accesses
                    else 0.0
                ),
            }
            # Degraded lens only when something was actually served
            # degraded, so a chaos-free snapshot is byte-identical to
            # the pre-chaos format.
            degraded = self._degraded.get(key)
            if degraded is not None:
                out[key]["degraded_accesses"] = float(
                    degraded.accesses
                )
                out[key]["degraded_miss_rate"] = (
                    self.degraded_miss_rate(key)
                )
        return out
