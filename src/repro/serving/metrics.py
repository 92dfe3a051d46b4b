"""Rolling per-shard / per-tenant serving metrics.

The serving loop records one :class:`~repro.cache.stats.CacheStats`
delta per key (shard or tenant) per chunk, reconstructed exactly from
the simulator's per-access outcome codes.  This module keeps a
bounded window of those deltas per key and derives the two numbers an
operator watches: the rolling miss rate and the rolling average
access time under the Table 1 :class:`~repro.hardware.latency.LatencyModel`.

The chaos harness (``repro.chaos``) adds a second lens: deltas served
in *degraded mode* (failover, SSD-direct during a shard stall, link
degradation) are recorded with ``degraded=True`` and aggregated
separately, and discrete failure/recovery events
(:class:`FailureEvent`) land on the same per-key timeline so
time-to-detect / time-to-recover fall straight out of the record.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.cache.stats import CacheStats
from repro.hardware.latency import LatencyModel

#: Chunk deltas retained per key by the rolling window.
WINDOW_CHUNKS = 8


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

    Keeps the last :data:`WINDOW_CHUNKS` chunk deltas per key and
    prices them with the Table 1
    :class:`~repro.hardware.latency.LatencyModel`.
    """

    def __init__(self) -> None:
        self.latency_model = LatencyModel()
        self._windows: dict[str, deque[CacheStats]] = {}
        self._totals: dict[str, CacheStats] = {}
        self._degraded: dict[str, CacheStats] = {}
        self._events: list[FailureEvent] = []

    def record(
        self, key: str, stats: CacheStats, degraded: bool = False
    ) -> None:
        """Append one chunk's counter delta for ``key``.

        ``degraded=True`` marks the delta as served in degraded mode
        (failover target, SSD-direct during a shard stall, degraded
        link); it still lands in the rolling window and totals, and
        is *additionally* aggregated under the degraded lens.
        """
        window = self._windows.get(key)
        if window is None:
            window = deque(maxlen=WINDOW_CHUNKS)
            self._windows[key] = window
            self._totals[key] = CacheStats()
        window.append(stats)
        self._totals[key] = self._totals[key].merge(stats)
        if degraded:
            self._degraded[key] = self._degraded.get(
                key, CacheStats()
            ).merge(stats)

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
