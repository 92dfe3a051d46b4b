"""Fleet health monitoring: detect and quarantine sick devices.

The chaos harness (PR 6) *tolerates* faults the injector announces --
``device_down`` hands the fabric an explicit outage window and
failover does the rest.  Fail-slow devices break that model: the
device keeps answering, its cache counters look healthy, and only its
*latency* drifts away from the fleet.  The
:class:`FleetHealthMonitor` is the response layer for exactly that
blind spot: it watches per-device latency/miss EWMAs (maintained by
:class:`repro.serving.metrics.RollingMetrics`) against the fleet
median and walks each device through a four-state machine::

    healthy --breach--> suspect --N consecutive--> quarantined
       ^                   |                           |
       |                (clean)                 (cool-down over)
       |                   v                           v
       +--clean probes-- probation <-------------------+
                           |
                        (breach)
                           v
                      quarantined

A quarantined device is removed from placement -- the fabric re-homes
its traffic onto healthy devices under the same score-aware failover
mechanism outage windows use -- then held in probation where live
probe traffic must stay clean for a configured number of chunks
before reinstatement.  Every transition is recorded as a
:class:`~repro.serving.metrics.FailureEvent` and appended to a
decision log whose digest the chaos scorecard tests compare across
worker counts: decisions are pure functions of per-chunk counters and
the chunk index, never wall-clock time.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional

import numpy as np

from repro.cache.stats import CacheStats
from repro.core.config import FleetHealthConfig
from repro.serving.metrics import RollingMetrics

#: Monitor states (``suspect`` is derived: healthy with a nonzero
#: breach streak).
STATE_HEALTHY = "healthy"
STATE_SUSPECT = "suspect"
STATE_QUARANTINED = "quarantined"
STATE_PROBATION = "probation"

#: Transition kinds recorded on the metrics timeline.
EVENT_SUSPECT = "device-suspect"
EVENT_CLEARED = "device-cleared"
EVENT_QUARANTINED = "device-quarantined"
EVENT_PROBATION = "device-probation"
EVENT_REINSTATED = "device-reinstated"

#: Every kind above: the monitor's decisions, not faults.
DECISION_EVENTS = (
    EVENT_SUSPECT,
    EVENT_CLEARED,
    EVENT_QUARANTINED,
    EVENT_PROBATION,
    EVENT_REINSTATED,
)

#: A breaching device whose *instantaneous* severity dropped below
#: this fraction of its previous chunk's is *recovering* (cold cache
#: re-warming after an outage, backlog draining) and does not advance
#: its breach streak: quarantine is for devices getting worse or
#: stuck, not for ones visibly healing.  The trend is judged on raw
#: per-chunk values rather than the EWMA because the EWMA keeps
#: rising for several chunks after a one-off spike even while the
#: device heals; a fail-slow ramp rises chunk over chunk in the raw
#: values too, so it is never exempted.
IMPROVEMENT_TOLERANCE = 0.95

#: Relative miss-EWMA breach bar (times the fleet median), plus an
#: absolute floor so near-zero medians do not flag noise.
MISS_THRESHOLD = 2.0
MISS_FLOOR = 0.05


class FleetHealthMonitor:
    """Median-relative EWMA watchdog over a device fleet.

    Parameters
    ----------
    config:
        Thresholds and state-machine clocks
        (:class:`~repro.core.config.FleetHealthConfig`).
    n_devices:
        Fleet size; device ids are ``0..n_devices-1``.
    metrics:
        Optional :class:`RollingMetrics` to observe into; by default
        the monitor owns a private instance (keyed ``device:<id>``)
        so its per-chunk records never double-count into a fabric's
        own degraded-lens bookkeeping.

    The driving layer calls :meth:`observe` once per (device, chunk)
    with the chunk's counters and *priced* service time (premiums
    included), then :meth:`step` once per chunk; decisions returned
    by ``step`` take effect at the next chunk via
    :meth:`blocked_devices`.
    """

    def __init__(
        self,
        config: FleetHealthConfig,
        n_devices: int,
        metrics: RollingMetrics | None = None,
    ) -> None:
        self.config = config
        self.n_devices = int(n_devices)
        self.metrics = (
            metrics
            if metrics is not None
            else RollingMetrics(ewma_alpha=config.ewma_alpha)
        )
        self._state = [STATE_HEALTHY] * self.n_devices
        self._breaches = [0] * self.n_devices
        self._clean = [0] * self.n_devices
        self._quarantined_at = [-1] * self.n_devices
        self._severity: list[float | None] = [None] * self.n_devices
        self._pending: dict[int, tuple[CacheStats, int]] = {}
        self.decisions: list[dict] = []
        self.quarantines = 0
        self.reinstatements = 0
        self.suspects = 0

    @classmethod
    def from_config(
        cls,
        config: Optional[FleetHealthConfig],
        n_devices: int,
        metrics: RollingMetrics | None = None,
    ) -> Optional["FleetHealthMonitor"]:
        """Build a monitor, or ``None`` when ``config`` is ``None``.

        ``None`` (not a no-op monitor) is the disabled form so the
        fabric can gate on ``if monitor is not None`` and run its
        exact pre-monitor code path otherwise.  A single-device fleet
        also gets ``None``: there is no fleet median to compare
        against (and nowhere to re-home traffic).
        """
        if config is None or n_devices < 2:
            return None
        return cls(config, n_devices, metrics=metrics)

    # ------------------------------------------------------------------
    # Per-chunk protocol
    # ------------------------------------------------------------------
    def _key(self, device: int) -> str:
        return f"device:{device}"

    def observe(
        self, device: int, stats: CacheStats, time_ns: int
    ) -> None:
        """Feed one device's chunk counters and priced service time."""
        if stats.accesses == 0:
            return
        self.metrics.record_timed(self._key(device), stats, time_ns)
        self._pending[device] = (stats, int(time_ns))

    def state(self, device: int) -> str:
        """Current state name (``suspect`` when a breach streak is
        open on a healthy device)."""
        state = self._state[device]
        if state == STATE_HEALTHY and self._breaches[device] > 0:
            return STATE_SUSPECT
        return state

    def blocked_devices(self) -> tuple[int, ...]:
        """Devices currently held out of placement (quarantined)."""
        return tuple(
            d
            for d in range(self.n_devices)
            if self._state[d] == STATE_QUARANTINED
        )

    def step(self, chunk_index: int) -> list[tuple[str, int, dict]]:
        """Advance the state machine one chunk.

        Consumes the observations fed since the previous step and
        returns the transitions fired this chunk as
        ``(event_kind, device, info)`` tuples -- already appended to
        the decision log; the caller records them on its own metrics
        timeline.  Deterministic: devices are judged in ascending id
        order and every input is a per-chunk counter.
        """
        cfg = self.config
        observed = self._pending
        self._pending = {}
        transitions: list[tuple[str, int, dict]] = []

        def fire(kind: str, device: int, **info) -> None:
            transitions.append((kind, device, info))
            self.decisions.append(
                {
                    "chunk": int(chunk_index),
                    "device": int(device),
                    "transition": kind,
                }
            )

        # Quarantine cool-down over -> probation: traffic resumes
        # next chunk as live probes, judged on a fresh EWMA (the
        # frozen sick estimate would re-breach instantly).
        for device in range(self.n_devices):
            if (
                self._state[device] == STATE_QUARANTINED
                and chunk_index
                >= self._quarantined_at[device] + cfg.quarantine_chunks
            ):
                self._state[device] = STATE_PROBATION
                self._clean[device] = 0
                self._severity[device] = None
                self.metrics.reset_ewma(self._key(device))
                fire(EVENT_PROBATION, device)

        serving = [
            d
            for d in range(self.n_devices)
            if self._state[d] != STATE_QUARANTINED
        ]
        # Only devices observed *this chunk* vote in the fleet
        # median: a device sitting out an outage window carries a
        # stale EWMA frozen at whatever the workload looked like
        # before it went down, and letting it vote drags the median
        # away from what the serving fleet is actually experiencing
        # (e.g. a tenant phase shift during the outage would read as
        # half the fleet "breaching" against pre-shift latencies).
        voting = [d for d in serving if d in observed]
        latency_samples = [
            ewma
            for d in voting
            if (ewma := self.metrics.ewma_latency_ns(self._key(d)))
            is not None
        ]
        miss_samples = [
            ewma
            for d in voting
            if (ewma := self.metrics.ewma_miss_rate(self._key(d)))
            is not None
        ]
        if len(latency_samples) < 2:
            return transitions
        median_latency = float(np.median(latency_samples))
        median_miss = float(np.median(miss_samples))
        # Never judge the fleet below the survivable floor: each
        # quarantine this step shrinks the serving set, and the guard
        # is re-checked per device (ascending id order, so which
        # device wins a race to the last slot is deterministic).
        active = len(serving)

        for device in serving:
            pending = observed.get(device)
            if (
                pending is None
                or pending[0].accesses < cfg.min_chunk_accesses
            ):
                continue
            key = self._key(device)
            ewma_latency = self.metrics.ewma_latency_ns(key)
            ewma_miss = self.metrics.ewma_miss_rate(key)
            if ewma_latency is None:
                continue
            # Severity folds both channels onto a shared "times the
            # breach threshold" scale; > 1.0 on the smoothed (EWMA)
            # values is a breach.  The chunk-over-chunk trend that
            # separates a device getting worse (fail-slow ramp) from
            # one visibly healing (cold cache after an outage) is
            # judged on the *instantaneous* chunk values, which react
            # a full EWMA time-constant earlier.
            miss_bound = MISS_THRESHOLD * median_miss + MISS_FLOOR

            def fold(latency_ns: float, miss_rate: float) -> float:
                sev = 0.0
                if median_latency > 0.0:
                    sev = latency_ns / (
                        cfg.latency_threshold * median_latency
                    )
                if miss_bound > 0.0:
                    sev = max(sev, miss_rate / miss_bound)
                return sev

            severity = fold(ewma_latency, ewma_miss)
            breach = severity > 1.0
            chunk_stats, chunk_time_ns = pending
            instant = fold(
                chunk_time_ns / chunk_stats.accesses,
                chunk_stats.misses / chunk_stats.accesses,
            )
            previous = self._severity[device]
            self._severity[device] = instant
            improving = (
                previous is not None
                and instant < IMPROVEMENT_TOLERANCE * previous
            )
            info = {
                "ewma_latency_us": round(ewma_latency / 1_000.0, 3),
                "median_latency_us": round(
                    median_latency / 1_000.0, 3
                ),
                "severity": round(severity, 3),
            }
            state = self._state[device]
            if state == STATE_HEALTHY:
                if breach and not improving:
                    self._breaches[device] += 1
                    if self._breaches[device] == 1:
                        self.suspects += 1
                        fire(EVENT_SUSPECT, device, **info)
                    if (
                        self._breaches[device] >= cfg.breach_chunks
                        and active > cfg.min_active_devices
                    ):
                        self._state[device] = STATE_QUARANTINED
                        self._quarantined_at[device] = int(
                            chunk_index
                        )
                        self._breaches[device] = 0
                        self.quarantines += 1
                        active -= 1
                        fire(EVENT_QUARANTINED, device, **info)
                elif not breach and self._breaches[device] > 0:
                    self._breaches[device] = 0
                    fire(EVENT_CLEARED, device, **info)
                # breach + improving: hold the streak open without
                # advancing it -- the next non-breach chunk clears.
            elif state == STATE_PROBATION:
                if breach and previous is None:
                    # First probe after the EWMA reset only seeds the
                    # severity trend; judgement starts next chunk.
                    pass
                elif breach and not improving:
                    if active > cfg.min_active_devices:
                        self._state[device] = STATE_QUARANTINED
                        self._quarantined_at[device] = int(
                            chunk_index
                        )
                        self._clean[device] = 0
                        self.quarantines += 1
                        active -= 1
                        fire(
                            EVENT_QUARANTINED,
                            device,
                            probation_failed=True,
                            **info,
                        )
                elif not breach:
                    self._clean[device] += 1
                    if self._clean[device] >= cfg.probation_chunks:
                        self._state[device] = STATE_HEALTHY
                        self._clean[device] = 0
                        self.reinstatements += 1
                        fire(EVENT_REINSTATED, device, **info)
        return transitions

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def decision_digest(self) -> str:
        """Canonical SHA-256 of the decision log.

        The chaos scorecard tests assert this digest is identical
        across worker counts: monitor decisions depend only on
        logical clocks and merged per-chunk counters.
        """
        payload = json.dumps(
            self.decisions, sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def summary(self) -> dict:
        """Counters + per-device states (for benches and the CLI)."""
        return {
            "quarantines": self.quarantines,
            "reinstatements": self.reinstatements,
            "suspects": self.suspects,
            "states": [
                self.state(d) for d in range(self.n_devices)
            ],
            "decisions": list(self.decisions),
            "decision_digest": self.decision_digest(),
        }

    def __repr__(self) -> str:
        return (
            f"FleetHealthMonitor(n_devices={self.n_devices},"
            f" quarantined={len(self.blocked_devices())})"
        )
