"""Query-side of the chaos harness.

The :class:`FaultInjector` wraps a :class:`~repro.chaos.plan.FaultPlan`
with O(1)-ish lookups the victim layers call on their logical clocks:
the fabric asks ``device_down``/``link_factor`` per chunk, and the
serving loop asks ``shard_stalled``/``refresh_fault``.  Queries
are pure -- asking twice (e.g. when a chunk is retried after an
exception) returns the same answer -- and every *positive* answer is
recorded exactly once (deduped by ``(kind, start, target)``), so the
observed timeline and its digest are reproducible no matter how often
a tick is replayed.
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import ChaosConfig
from repro.chaos.plan import (
    KIND_DEVICE_CORRELATED,
    KIND_DEVICE_FAIL,
    KIND_DEVICE_FAILSLOW,
    KIND_LINK_DEGRADE,
    KIND_REFRESH_CORRUPT,
    KIND_REFRESH_FAIL,
    KIND_SHARD_STALL,
    FaultEvent,
    FaultPlan,
    _digest,
)


def _merge_windows(
    windows: list[tuple[int, int]],
) -> list[tuple[int, int]]:
    """Coalesce overlapping/adjacent ``[start, end)`` windows.

    Overlapping events on the same ``(kind, target)`` -- legal in
    hand-written plans, and possible when durations are clamped --
    used to record as *distinct* timeline entries covering one
    continuous outage, which skewed ``recovery_chunk`` and the
    recovery-latency pairing.  Coalescing at construction makes the
    observed timeline describe each contiguous outage exactly once.
    """
    merged: list[tuple[int, int]] = []
    for start, end in sorted(windows):
        if merged and start <= merged[-1][1]:
            merged[-1] = (
                merged[-1][0],
                max(merged[-1][1], end),
            )
        else:
            merged.append((start, end))
    return merged


class InjectedFaultError(RuntimeError):
    """A simulated fault raised into a victim layer by the harness.

    Distinguishable from organic failures so tests and operators can
    tell an injected refresh/build failure from a real one; the
    victim's graceful-degradation path must handle both identically.
    """


class FaultInjector:
    """Deterministic fault oracle over a generated plan.

    All queries run in each victim layer's chunk loop, in logical
    clock order, so the record order -- and therefore
    :meth:`timeline_digest` -- is identical run for run.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        # Outage windows per (kind, device): ``device-fail`` and
        # ``device-correlated`` share the same query surface
        # (``device_down``) but keep their own kind on the observed
        # timeline.  Windows are coalesced per key at construction
        # (see :func:`_merge_windows`) so an overlap never records a
        # single contiguous outage twice.
        self._device_windows: dict[
            tuple[str, int], list[tuple[int, int]]
        ] = {}
        self._link_windows: dict[
            int, list[tuple[int, int, float]]
        ] = {}
        self._failslow_windows: dict[
            int, list[tuple[int, int, float]]
        ] = {}
        self._stalls: set[tuple[int, int]] = set()
        self._refresh: dict[int, str] = {}
        for event in plan.events:
            end = event.start + event.duration
            if event.kind in (
                KIND_DEVICE_FAIL,
                KIND_DEVICE_CORRELATED,
            ):
                self._device_windows.setdefault(
                    (event.kind, event.target), []
                ).append((event.start, end))
            elif event.kind == KIND_LINK_DEGRADE:
                self._link_windows.setdefault(
                    event.target, []
                ).append((event.start, end, event.magnitude))
            elif event.kind == KIND_DEVICE_FAILSLOW:
                self._failslow_windows.setdefault(
                    event.target, []
                ).append((event.start, end, event.magnitude))
            elif event.kind == KIND_SHARD_STALL:
                self._stalls.add((event.start, event.target))
            elif event.kind == KIND_REFRESH_FAIL:
                self._refresh[event.start] = "fail"
            elif event.kind == KIND_REFRESH_CORRUPT:
                self._refresh[event.start] = "corrupt"
        for key, windows in self._device_windows.items():
            self._device_windows[key] = _merge_windows(windows)
        # Magnitude-carrying windows (link degradation, fail-slow
        # ramps) cannot be meaningfully merged across different
        # magnitudes; the ordering contract is *earliest window
        # wins*: windows are sorted by start and a query returns the
        # first one covering the chunk.
        for target in self._link_windows:
            self._link_windows[target] = sorted(
                set(self._link_windows[target])
            )
        for target in self._failslow_windows:
            self._failslow_windows[target] = sorted(
                set(self._failslow_windows[target])
            )
        self._records: list[FaultEvent] = []
        self._seen: set[tuple[str, int, int]] = set()

    @classmethod
    def from_config(
        cls,
        config: Optional[ChaosConfig],
        n_devices: int = 0,
        n_shards: int = 0,
    ) -> Optional["FaultInjector"]:
        """Build an injector, or ``None`` when ``config`` is ``None``.

        ``None`` (not a no-op injector) is the disabled form so every
        victim layer can gate on ``if injector is not None`` and run
        its exact pre-chaos code path otherwise.
        """
        if config is None:
            return None
        return cls(
            FaultPlan.generate(
                config, n_devices=n_devices, n_shards=n_shards
            )
        )

    # ------------------------------------------------------------------
    # Fabric queries (logical clock: fabric chunk index)
    # ------------------------------------------------------------------
    def device_down(self, device: int, chunk: int) -> bool:
        """Is ``device`` inside any outage window at ``chunk``?

        Covers both the independent ``device-fail`` channel and the
        correlated blast channel; the observed timeline records the
        kind the outage came from.
        """
        down = False
        for kind in (KIND_DEVICE_FAIL, KIND_DEVICE_CORRELATED):
            for start, end in self._device_windows.get(
                (kind, device), ()
            ):
                if start <= chunk < end:
                    self._record(kind, start, device, end - start)
                    down = True
        return down

    def link_factor(self, device: int, chunk: int) -> float:
        """Link round-trip multiplier; 1.0 when healthy."""
        for start, end, factor in self._link_windows.get(device, ()):
            if start <= chunk < end:
                self._record(
                    KIND_LINK_DEGRADE,
                    start,
                    device,
                    end - start,
                    factor,
                )
                return factor
        return 1.0

    def failslow_factor(self, device: int, chunk: int) -> float:
        """Whole-path latency multiplier of a fail-slow ramp.

        Unlike :meth:`link_factor`'s binary windows, the multiplier
        *grows per chunk*: it ramps linearly from near-healthy at the
        window's first chunk up to the event's peak ``magnitude`` at
        its last chunk, then clears.  Earliest window wins when
        hand-written windows overlap.  Returns 1.0 when healthy.
        """
        for start, end, magnitude in self._failslow_windows.get(
            device, ()
        ):
            if start <= chunk < end:
                self._record(
                    KIND_DEVICE_FAILSLOW,
                    start,
                    device,
                    end - start,
                    magnitude,
                )
                progress = (chunk - start + 1) / (end - start)
                return 1.0 + (magnitude - 1.0) * progress
        return 1.0

    # ------------------------------------------------------------------
    # Serving queries (logical clocks: chunk index, build index)
    # ------------------------------------------------------------------
    def shard_stalled(self, chunk: int, shard: int) -> bool:
        """Is ``shard`` stalled for ``chunk`` (served SSD-direct)?"""
        stalled = (chunk, shard) in self._stalls
        if stalled:
            self._record(KIND_SHARD_STALL, chunk, shard)
        return stalled

    def refresh_fault(self, build_index: int) -> Optional[str]:
        """``"fail"``, ``"corrupt"``, or ``None`` for this build."""
        kind = self._refresh.get(build_index)
        if kind == "fail":
            self._record(KIND_REFRESH_FAIL, build_index, -1)
        elif kind == "corrupt":
            self._record(KIND_REFRESH_CORRUPT, build_index, -1)
        return kind

    # ------------------------------------------------------------------
    # Observed timeline
    # ------------------------------------------------------------------
    def _record(
        self,
        kind: str,
        start: int,
        target: int,
        duration: int = 1,
        magnitude: float = 0.0,
    ) -> None:
        key = (kind, start, target)
        if key in self._seen:
            return
        self._seen.add(key)
        self._records.append(
            FaultEvent(
                start=start,
                kind=kind,
                target=target,
                duration=duration,
                magnitude=magnitude,
            )
        )

    @property
    def records(self) -> tuple[FaultEvent, ...]:
        """Faults that actually fired, in canonical order."""
        return tuple(sorted(self._records))

    def timeline(self) -> list[dict]:
        return [event.as_dict() for event in self.records]

    def timeline_digest(self) -> str:
        """Canonical SHA-256 of the *observed* fault timeline."""
        return _digest(self.records)
