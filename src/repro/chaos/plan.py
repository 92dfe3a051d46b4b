"""Seeded fault timelines on a logical clock.

A :class:`FaultPlan` is the *schedule* of every fault a chaos run will
inject: device outages and link-latency degradation against the CXL
fabric, and per-shard stalls and refresh-build faults against the
serving loop.  The plan is generated once from a
:class:`~repro.core.config.ChaosConfig` seed via independent ``numpy``
``SeedSequence`` child streams (one per fault channel, one per target
within a channel), and every event is pinned to a *logical* tick --
chunk index or build index -- never wall-clock time.  Same seed, same
topology => byte-identical timeline, regardless of host speed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.core.config import ChaosConfig

#: Link round-trip multiplier inside a ``link-degrade`` window.
LINK_DEGRADE_FACTOR = 4.0
#: Devices one correlated blast takes down together, and for how many
#: chunks.
CORRELATED_FAIL_K = 2
CORRELATED_FAIL_CHUNKS = 4
#: Fail-slow ramp length (clamped to the horizon, so a sick device
#: stays sick until the run ends) and the peak multiplier it reaches
#: at the window's last chunk.
FAILSLOW_CHUNKS = 4096
FAILSLOW_MAX_FACTOR = 8.0
#: A ramp past this multiplier trips the device's watchdog: one
#: one-chunk outage blip every ``FAILSLOW_RESET_PERIOD`` chunks.
FAILSLOW_RESET_FACTOR = 4.0
FAILSLOW_RESET_PERIOD = 2

#: Fault kinds, one per channel.  ``target`` semantics per kind:
#: device id, device id, shard id, -1, -1, device id, device id.
KIND_DEVICE_FAIL = "device-fail"
KIND_LINK_DEGRADE = "link-degrade"
KIND_SHARD_STALL = "shard-stall"
KIND_REFRESH_FAIL = "refresh-fail"
KIND_REFRESH_CORRUPT = "refresh-corrupt"
KIND_DEVICE_CORRELATED = "device-correlated"
KIND_DEVICE_FAILSLOW = "device-failslow"

FAULT_KINDS = (
    KIND_DEVICE_FAIL,
    KIND_LINK_DEGRADE,
    KIND_SHARD_STALL,
    KIND_REFRESH_FAIL,
    KIND_REFRESH_CORRUPT,
    KIND_DEVICE_CORRELATED,
    KIND_DEVICE_FAILSLOW,
)


@dataclass(frozen=True, order=True)
class FaultEvent:
    """One scheduled fault.

    ``start`` is the logical tick the fault begins: the chunk index
    for fabric/serving faults and the build index for refresh
    faults.  ``duration`` is the window length in the same unit for
    windowed faults (device outages, link degradation, fail-slow
    ramps); shard stalls last one chunk and refresh faults one
    build.  ``target`` is the device/shard the fault hits, or ``-1``
    when the fault has no spatial target (refresh builds).
    ``magnitude`` carries the link-degradation factor and the
    fail-slow peak multiplier, and is 0.0 for every other kind.
    """

    start: int
    kind: str
    target: int
    duration: int = 1
    magnitude: float = 0.0

    def as_dict(self) -> dict:
        return {
            "start": int(self.start),
            "kind": self.kind,
            "target": int(self.target),
            "duration": int(self.duration),
            "magnitude": float(self.magnitude),
        }


def _digest(events: Iterable[FaultEvent]) -> str:
    payload = json.dumps(
        [event.as_dict() for event in events],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _window_starts(
    rng: np.random.Generator,
    horizon: int,
    rate: float,
    duration: int,
) -> list[int]:
    """Non-overlapping window starts from per-tick Bernoulli draws."""
    draws = rng.random(horizon)
    starts: list[int] = []
    tick = 0
    while tick < horizon:
        if draws[tick] < rate:
            starts.append(tick)
            tick += duration
        else:
            tick += 1
    return starts


def _failslow_resets(
    device: int, start: int, duration: int
) -> list[FaultEvent]:
    """Watchdog-reset blips of one fail-slow ramp window.

    A fleet-scale fail-slow device does not just get slower: past
    some degradation level its controller starts tripping the
    watchdog, so the latency ramp is punctuated by transient
    one-chunk outages.  The blips are a pure function of the window
    geometry (no extra randomness): the first lands on the chunk
    where the interpolated multiplier reaches
    :data:`FAILSLOW_RESET_FACTOR`, then one every
    :data:`FAILSLOW_RESET_PERIOD` chunks to the window's end.  They
    are scheduled as ordinary ``device-fail`` events, so the existing
    outage/failover machinery serves them with zero access loss.
    """
    # factor(c) = 1 + (peak - 1) * (c - start + 1) / duration
    offset = int(
        np.ceil(
            duration
            * (FAILSLOW_RESET_FACTOR - 1.0)
            / (FAILSLOW_MAX_FACTOR - 1.0)
        )
    )
    first = start + max(offset, 1) - 1
    return [
        FaultEvent(
            start=chunk,
            kind=KIND_DEVICE_FAIL,
            target=device,
            duration=1,
        )
        for chunk in range(
            first, start + duration, FAILSLOW_RESET_PERIOD
        )
    ]


class FaultPlan:
    """An immutable, sorted fault timeline.

    Construct directly from events (tests, replays) or via
    :meth:`generate` from a config + topology.  Events are kept
    sorted by ``(start, kind, target)`` so the timeline -- and its
    :meth:`digest` -- is canonical.
    """

    def __init__(
        self, config: ChaosConfig, events: Iterable[FaultEvent]
    ) -> None:
        self.config = config
        self.events: tuple[FaultEvent, ...] = tuple(sorted(events))

    @classmethod
    def generate(
        cls,
        config: ChaosConfig,
        n_devices: int = 0,
        n_shards: int = 0,
    ) -> "FaultPlan":
        """Sample the full timeline from ``config.seed``.

        Each channel (and each target within a channel) draws from its
        own ``SeedSequence`` child, so enabling one channel never
        perturbs another (appending children preserves the earlier
        channels' streams, so pre-existing plans keep their exact
        timelines at equal seeds).  Children 4 and 5 belong to no
        channel: they are still spawned so every later channel keeps
        its stream.

        Raises a :class:`ValueError` up front -- before any sampling
        -- when :data:`CORRELATED_FAIL_K` exceeds the fleet size of
        an armed correlated channel, rather than failing inside the
        victim-sampling draw.
        """
        horizon = config.horizon_chunks
        if (
            config.correlated_fail_rate > 0.0
            and n_devices > 0
            and CORRELATED_FAIL_K > n_devices
        ):
            raise ValueError(
                f"CORRELATED_FAIL_K ({CORRELATED_FAIL_K})"
                f" exceeds the fleet size ({n_devices} devices);"
                " a correlated blast cannot take down more devices"
                " than the fabric has"
            )
        channels = np.random.SeedSequence(config.seed).spawn(8)
        events: list[FaultEvent] = []

        if config.device_fail_rate > 0.0 and n_devices > 0:
            for device, seq in enumerate(channels[0].spawn(n_devices)):
                rng = np.random.default_rng(seq)
                for start in _window_starts(
                    rng,
                    horizon,
                    config.device_fail_rate,
                    config.device_fail_chunks,
                ):
                    events.append(
                        FaultEvent(
                            start=start,
                            kind=KIND_DEVICE_FAIL,
                            target=device,
                            duration=min(
                                config.device_fail_chunks,
                                horizon - start,
                            ),
                        )
                    )

        if config.link_degrade_rate > 0.0 and n_devices > 0:
            for device, seq in enumerate(channels[1].spawn(n_devices)):
                rng = np.random.default_rng(seq)
                for start in _window_starts(
                    rng,
                    horizon,
                    config.link_degrade_rate,
                    config.link_degrade_chunks,
                ):
                    events.append(
                        FaultEvent(
                            start=start,
                            kind=KIND_LINK_DEGRADE,
                            target=device,
                            duration=min(
                                config.link_degrade_chunks,
                                horizon - start,
                            ),
                            magnitude=LINK_DEGRADE_FACTOR,
                        )
                    )

        if config.shard_stall_rate > 0.0 and n_shards > 0:
            for shard, seq in enumerate(channels[2].spawn(n_shards)):
                draws = np.random.default_rng(seq).random(horizon)
                for chunk in np.flatnonzero(
                    draws < config.shard_stall_rate
                ):
                    events.append(
                        FaultEvent(
                            start=int(chunk),
                            kind=KIND_SHARD_STALL,
                            target=shard,
                        )
                    )

        refresh_total = (
            config.refresh_fail_rate + config.refresh_corrupt_rate
        )
        if refresh_total > 0.0:
            draws = np.random.default_rng(channels[3]).random(horizon)
            for build in range(horizon):
                if draws[build] < config.refresh_fail_rate:
                    kind = KIND_REFRESH_FAIL
                elif draws[build] < refresh_total:
                    kind = KIND_REFRESH_CORRUPT
                else:
                    continue
                events.append(
                    FaultEvent(start=build, kind=kind, target=-1)
                )

        if config.correlated_fail_rate > 0.0 and n_devices > 0:
            # One shared blast-radius stream (not per-device): the
            # window starts *and* every blast's victim set come from
            # the same child, so the correlation structure -- which
            # devices go down together -- is a pure function of the
            # seed, stable under fleet-size-preserving config edits.
            rng = np.random.default_rng(channels[6])
            for start in _window_starts(
                rng,
                horizon,
                config.correlated_fail_rate,
                CORRELATED_FAIL_CHUNKS,
            ):
                victims = np.sort(
                    rng.choice(
                        n_devices, size=CORRELATED_FAIL_K, replace=False
                    )
                )
                duration = min(CORRELATED_FAIL_CHUNKS, horizon - start)
                for device in victims.tolist():
                    events.append(
                        FaultEvent(
                            start=start,
                            kind=KIND_DEVICE_CORRELATED,
                            target=int(device),
                            duration=duration,
                        )
                    )

        if config.failslow_rate > 0.0 and n_devices > 0:
            # Fail-slow ramps: ``magnitude`` is the *peak* multiplier,
            # reached at the end of the window; the injector
            # interpolates the per-chunk factor from the window
            # geometry (see ``FaultInjector.failslow_factor``).
            for device, seq in enumerate(channels[7].spawn(n_devices)):
                rng = np.random.default_rng(seq)
                for start in _window_starts(
                    rng, horizon, config.failslow_rate, FAILSLOW_CHUNKS
                ):
                    duration = min(FAILSLOW_CHUNKS, horizon - start)
                    events.append(
                        FaultEvent(
                            start=start,
                            kind=KIND_DEVICE_FAILSLOW,
                            target=device,
                            duration=duration,
                            magnitude=FAILSLOW_MAX_FACTOR,
                        )
                    )
                    events.extend(
                        _failslow_resets(device, start, duration)
                    )

        return cls(config, events)

    def __len__(self) -> int:
        return len(self.events)

    def by_kind(self, kind: str) -> Sequence[FaultEvent]:
        return tuple(e for e in self.events if e.kind == kind)

    def as_dicts(self) -> list[dict]:
        return [event.as_dict() for event in self.events]

    def digest(self) -> str:
        """Canonical SHA-256 of the scheduled timeline."""
        return _digest(self.events)
