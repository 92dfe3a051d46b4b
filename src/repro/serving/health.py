"""Fleet health monitoring: detect and quarantine sick devices.

The chaos harness (PR 6) *tolerates* faults the injector announces --
``device_down`` hands the fabric an explicit outage window and
failover does the rest.  Fail-slow devices break that model: the
device keeps answering, its cache counters look healthy, and only its
*latency* drifts away from the fleet.  The
:class:`FleetHealthMonitor` is the response layer for exactly that
blind spot: it keeps per-device latency/miss EWMAs of the priced
chunk service time, compares them against the fleet median and walks
each device through a four-state machine::

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
probe traffic must stay clean for :data:`PROBATION_CHUNKS` chunks
before reinstatement.  Every transition is recorded as a
:class:`~repro.serving.metrics.FailureEvent` and appended to a
decision log whose digest the chaos scorecard tests compare across
worker counts: decisions are pure functions of per-chunk counters and
the chunk index, never wall-clock time.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from repro.cache.stats import CacheStats

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

#: Relative latency-EWMA breach bar (times the fleet median).
LATENCY_THRESHOLD = 2.0

#: Consecutive breaching chunks before quarantine.
BREACH_CHUNKS = 3

#: Chunks a quarantined device is held out of placement.
QUARANTINE_CHUNKS = 4

#: Consecutive clean probe chunks before reinstatement.
PROBATION_CHUNKS = 3

#: Smoothing factor of the per-device latency and miss EWMAs.
EWMA_ALPHA = 0.3

#: Chunks serving fewer accesses than this are not judged (too little
#: traffic to trust the latency estimate).
MIN_CHUNK_ACCESSES = 64

#: The monitor never quarantines below this many serving devices,
#: whatever the breach counters say.
MIN_ACTIVE_DEVICES = 1


class FleetHealthMonitor:
    """Median-relative EWMA watchdog over a device fleet.

    Parameters
    ----------
    n_devices:
        Fleet size; device ids are ``0..n_devices-1``.

    The driving layer calls :meth:`observe` once per (device, chunk)
    with the chunk's counters and *priced* service time (premiums
    included), then :meth:`step` once per chunk; decisions returned
    by ``step`` take effect at the next chunk via
    :meth:`blocked_devices`.  The thresholds and state-machine clocks
    are the module constants above.
    """

    def __init__(self, n_devices: int) -> None:
        self.n_devices = int(n_devices)
        self._state = [STATE_HEALTHY] * self.n_devices
        self._breaches = [0] * self.n_devices
        self._clean = [0] * self.n_devices
        self._quarantined_at = [-1] * self.n_devices
        self._severity: list[float | None] = [None] * self.n_devices
        self._ewma_latency_ns: list[float | None] = [None] * self.n_devices
        self._ewma_miss: list[float | None] = [None] * self.n_devices
        self._pending: dict[int, tuple[CacheStats, int]] = {}
        self.decisions: list[dict] = []
        self.quarantines = 0
        self.reinstatements = 0
        self.suspects = 0

    # ------------------------------------------------------------------
    # Per-chunk protocol
    # ------------------------------------------------------------------
    def observe(
        self, device: int, stats: CacheStats, time_ns: int
    ) -> None:
        """Feed one device's chunk counters and priced service time.

        ``time_ns`` includes any degraded-mode premiums (fail-slow
        ramps, link windows), so a slowly sickening device shows in
        its latency EWMA even though its cache counters look healthy.
        The first observation seeds both EWMAs; a chunk with zero
        accesses leaves them untouched.
        """
        if stats.accesses == 0:
            return
        latency = time_ns / stats.accesses
        miss = stats.miss_rate
        previous = self._ewma_latency_ns[device]
        if previous is None:
            self._ewma_latency_ns[device] = latency
            self._ewma_miss[device] = miss
        else:
            self._ewma_latency_ns[device] = (
                EWMA_ALPHA * latency + (1.0 - EWMA_ALPHA) * previous
            )
            self._ewma_miss[device] = (
                EWMA_ALPHA * miss
                + (1.0 - EWMA_ALPHA) * self._ewma_miss[device]
            )
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
                >= self._quarantined_at[device] + QUARANTINE_CHUNKS
            ):
                self._state[device] = STATE_PROBATION
                self._clean[device] = 0
                self._severity[device] = None
                self._ewma_latency_ns[device] = None
                self._ewma_miss[device] = None
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
            if (ewma := self._ewma_latency_ns[d]) is not None
        ]
        miss_samples = [
            ewma
            for d in voting
            if (ewma := self._ewma_miss[d]) is not None
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
                or pending[0].accesses < MIN_CHUNK_ACCESSES
            ):
                continue
            ewma_latency = self._ewma_latency_ns[device]
            ewma_miss = self._ewma_miss[device]
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
                        LATENCY_THRESHOLD * median_latency
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
                        self._breaches[device] >= BREACH_CHUNKS
                        and active > MIN_ACTIVE_DEVICES
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
                    if active > MIN_ACTIVE_DEVICES:
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
                    if self._clean[device] >= PROBATION_CHUNKS:
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
