"""Unit tests for the fleet health monitor's state machine.

Synthetic per-chunk feeds (no fabric) drive every transition edge:
breach streaks, quarantine cool-down, probation probes, the
improving-severity exemption, observed-only median voting, and the
survivable-fleet floor.  The walks set the module's ``EWMA_ALPHA``
to 1.0, which makes the smoothed severity equal the instantaneous
one, so each chunk's verdict is a pure function of that chunk's feed.
"""

import pytest

from repro.cache.stats import CacheStats
from repro.core.config import FabricTopology
from repro.cxl.fabric import CxlFabric
from repro.serving import health
from repro.serving.health import (
    EVENT_CLEARED,
    EVENT_PROBATION,
    EVENT_QUARANTINED,
    EVENT_REINSTATED,
    EVENT_SUSPECT,
    FleetHealthMonitor,
)


@pytest.fixture
def make_monitor(monkeypatch):
    """Build a monitor, setting the module's thresholds and clocks
    (named in lower case) for this test only."""

    def make(n_devices=3, **knobs):
        values = dict(
            latency_threshold=2.0,
            breach_chunks=2,
            quarantine_chunks=2,
            probation_chunks=2,
            ewma_alpha=1.0,
        )
        values.update(knobs)
        for name, value in values.items():
            monkeypatch.setattr(health, name.upper(), value)
        return FleetHealthMonitor(n_devices)

    return make


def _stats(hits, misses):
    return CacheStats(hits=hits, misses=misses)


def _chunk(monitor, chunk, latencies, miss=0.1, accesses=100):
    """Observe one chunk -- ``latencies`` maps device -> ns/access --
    then step, returning the fired transitions."""
    for device, latency in latencies.items():
        misses = int(round(accesses * miss))
        stats = CacheStats(hits=accesses - misses, misses=misses)
        monitor.observe(device, stats, int(latency * accesses))
    return monitor.step(chunk)


class TestArming:
    """``CxlFabric(monitor=True)`` arms a monitor on fleets of two or
    more devices; ``monitor=False`` is off."""

    def _monitor_of(self, n_devices, monitor):
        fabric = CxlFabric(
            FabricTopology(n_devices=n_devices), monitor=monitor
        )
        return fabric.monitor

    def test_none_when_disabled(self):
        assert self._monitor_of(4, monitor=False) is None

    def test_none_on_single_device_fleet(self):
        """No fleet median and nowhere to re-home."""
        assert self._monitor_of(1, monitor=True) is None

    @pytest.mark.parametrize("n_devices", [2, 4])
    def test_monitor_when_enabled(self, n_devices):
        monitor = self._monitor_of(n_devices, monitor=True)
        assert isinstance(monitor, FleetHealthMonitor)
        assert monitor.n_devices == n_devices


class TestEwmaSignals:
    """The monitor's own per-device latency and miss EWMAs."""

    def test_observe_maintains_ewmas(self, make_monitor):
        monitor = make_monitor(ewma_alpha=0.2)
        assert monitor._ewma_latency_ns[0] is None
        assert monitor._ewma_miss[0] is None
        monitor.observe(0, _stats(90, 10), 100_000)
        # First observation seeds both estimates directly.
        assert monitor._ewma_latency_ns[0] == pytest.approx(1_000.0)
        assert monitor._ewma_miss[0] == pytest.approx(0.1)
        monitor.observe(0, _stats(50, 50), 300_000)
        assert monitor._ewma_latency_ns[0] == pytest.approx(1_400.0)
        assert monitor._ewma_miss[0] == pytest.approx(0.18)
        # Devices are tracked apart.
        assert monitor._ewma_latency_ns[1] is None

    def test_zero_access_chunk_leaves_ewmas_untouched(
        self, make_monitor
    ):
        monitor = make_monitor(ewma_alpha=0.2)
        monitor.observe(0, _stats(100, 0), 100_000)
        before = (monitor._ewma_latency_ns[0], monitor._ewma_miss[0])
        monitor.observe(0, _stats(0, 0), 0)
        assert (monitor._ewma_latency_ns[0], monitor._ewma_miss[0]) == (
            before
        )

    def test_probation_rebases_the_estimate(self, make_monitor):
        """The quarantine froze the sick EWMA; probe chunks are judged
        on current behaviour, not history."""
        monitor = make_monitor(ewma_alpha=0.5)
        fleet = {0: 1_000, 1: 1_000, 2: 1_000}
        for chunk, latencies in enumerate(
            [fleet, {**fleet, 2: 5_000}, {**fleet, 2: 6_000}]
        ):
            _chunk(monitor, chunk, latencies)
        assert monitor.blocked_devices() == (2,)
        assert monitor._ewma_latency_ns[2] == pytest.approx(4_500.0)
        healthy = {0: 1_000, 1: 1_000}
        _chunk(monitor, 3, healthy)
        fired = _chunk(monitor, 4, healthy)
        assert [(k, d) for k, d, _ in fired] == [(EVENT_PROBATION, 2)]
        assert monitor._ewma_latency_ns[2] is None
        assert monitor._ewma_miss[2] is None
        # The next observation seeds fresh, with no sick history.
        monitor.observe(2, _stats(100, 0), 100_000)
        assert monitor._ewma_latency_ns[2] == pytest.approx(1_000.0)
        assert monitor._ewma_miss[2] == pytest.approx(0.0)


class TestStateMachineWalk:
    def test_full_walk_to_reinstatement(self, make_monitor):
        monitor = make_monitor()
        fleet = {0: 1_000, 1: 1_000, 2: 1_000}
        assert _chunk(monitor, 0, fleet) == []
        assert _chunk(monitor, 1, fleet) == []
        # Device 2 breaches 2x the median: one chunk of suspicion...
        fired = _chunk(monitor, 2, {**fleet, 2: 5_000})
        assert [(k, d) for k, d, _ in fired] == [(EVENT_SUSPECT, 2)]
        assert monitor.state(2) == "suspect"
        # ...a second consecutive breach quarantines it.
        fired = _chunk(monitor, 3, {**fleet, 2: 6_000})
        assert [(k, d) for k, d, _ in fired] == [
            (EVENT_QUARANTINED, 2)
        ]
        assert monitor.blocked_devices() == (2,)
        # Quarantined devices receive no traffic; the cool-down runs
        # on the chunk clock alone.
        healthy = {0: 1_000, 1: 1_000}
        assert _chunk(monitor, 4, healthy) == []
        fired = _chunk(monitor, 5, healthy)
        assert [(k, d) for k, d, _ in fired] == [(EVENT_PROBATION, 2)]
        assert monitor.blocked_devices() == ()
        # Two clean probe chunks reinstate it.
        assert _chunk(monitor, 6, fleet) == []
        fired = _chunk(monitor, 7, fleet)
        assert [(k, d) for k, d, _ in fired] == [
            (EVENT_REINSTATED, 2)
        ]
        assert monitor.state(2) == "healthy"
        assert monitor.quarantines == 1
        assert monitor.reinstatements == 1

    def test_single_breach_clears_without_quarantine(self, make_monitor):
        monitor = make_monitor()
        fleet = {0: 1_000, 1: 1_000, 2: 1_000}
        _chunk(monitor, 0, fleet)
        _chunk(monitor, 1, {**fleet, 2: 5_000})
        fired = _chunk(monitor, 2, fleet)
        assert [(k, d) for k, d, _ in fired] == [(EVENT_CLEARED, 2)]
        assert monitor.quarantines == 0

    def test_probation_breach_requarantines(self, make_monitor):
        monitor = make_monitor()
        fleet = {0: 1_000, 1: 1_000, 2: 1_000}
        for chunk, latencies in enumerate(
            [fleet, fleet, {**fleet, 2: 5_000}, {**fleet, 2: 6_000}]
        ):
            _chunk(monitor, chunk, latencies)
        healthy = {0: 1_000, 1: 1_000}
        _chunk(monitor, 4, healthy)
        _chunk(monitor, 5, healthy)  # -> probation
        # First probe seeds the severity trend (the EWMA was reset);
        # a second, still-worsening probe fails probation.
        assert _chunk(monitor, 6, {**fleet, 2: 6_000}) == []
        fired = _chunk(monitor, 7, {**fleet, 2: 7_000})
        assert [(k, d) for k, d, _ in fired] == [
            (EVENT_QUARANTINED, 2)
        ]
        assert fired[0][2]["probation_failed"] is True
        assert monitor.quarantines == 2


class TestImprovingSeverityExemption:
    def test_healing_device_is_never_quarantined(self, make_monitor):
        """Still breaching but visibly recovering chunk over chunk
        (cold cache re-warming): the streak holds, never advances."""
        monitor = make_monitor()
        fleet = {0: 1_000, 1: 1_000, 2: 1_000}
        _chunk(monitor, 0, fleet)
        fired = _chunk(monitor, 1, {**fleet, 2: 6_000})
        assert [(k, d) for k, d, _ in fired] == [(EVENT_SUSPECT, 2)]
        # 6000 -> 5000 -> 4100: all breaches, all improving.
        assert _chunk(monitor, 2, {**fleet, 2: 5_000}) == []
        assert _chunk(monitor, 3, {**fleet, 2: 4_100}) == []
        fired = _chunk(monitor, 4, fleet)
        assert [(k, d) for k, d, _ in fired] == [(EVENT_CLEARED, 2)]
        assert monitor.quarantines == 0

    def test_worsening_ramp_is_not_exempted(self, make_monitor):
        monitor = make_monitor()
        fleet = {0: 1_000, 1: 1_000, 2: 1_000}
        _chunk(monitor, 0, fleet)
        _chunk(monitor, 1, {**fleet, 2: 5_000})
        fired = _chunk(monitor, 2, {**fleet, 2: 6_000})
        assert [(k, d) for k, d, _ in fired] == [
            (EVENT_QUARANTINED, 2)
        ]


class TestMedianVoting:
    def test_unobserved_devices_do_not_vote(self, make_monitor):
        """Devices sitting out a chunk (e.g. an outage) carry stale
        EWMAs; letting them vote would drag the median to a workload
        the serving fleet no longer sees and fire false breaches."""
        monitor = make_monitor(
            n_devices=4, latency_threshold=1.4, breach_chunks=1
        )
        fleet = {d: 1_000 for d in range(4)}
        _chunk(monitor, 0, fleet)
        _chunk(monitor, 1, fleet)
        # Devices 2 and 3 go dark; the surviving half's workload
        # shifts 3x.  Against the observed-only median (3000) nobody
        # breaches; against a stale-inclusive median (2000) both
        # survivors would.
        for chunk in range(2, 6):
            fired = _chunk(monitor, chunk, {0: 3_000, 1: 3_000})
            assert fired == []
        assert monitor.quarantines == 0
        assert monitor.suspects == 0

    def test_fewer_than_two_voters_defers_judgement(self, make_monitor):
        monitor = make_monitor()
        assert _chunk(monitor, 0, {0: 9_000}) == []
        assert monitor.suspects == 0


class TestGuards:
    def test_min_active_devices_floor_blocks_quarantine(self, make_monitor):
        monitor = make_monitor(min_active_devices=3)
        fleet = {0: 1_000, 1: 1_000, 2: 1_000}
        _chunk(monitor, 0, fleet)
        for chunk in range(1, 5):
            _chunk(monitor, chunk, {**fleet, 2: 5_000 + chunk * 500})
        # The breach streak runs but the fleet is already at the
        # survivable floor: suspicion only, never a quarantine.
        assert monitor.suspects == 1
        assert monitor.quarantines == 0
        assert monitor.state(2) == "suspect"

    def test_thin_chunks_are_not_judged(self, make_monitor):
        monitor = make_monitor(min_chunk_accesses=64)
        fleet = {0: 1_000, 1: 1_000, 2: 9_000}
        for chunk in range(4):
            assert _chunk(monitor, chunk, fleet, accesses=10) == []
        assert monitor.suspects == 0


class TestDecisionLog:
    def _walk(self, make_monitor):
        monitor = make_monitor()
        fleet = {0: 1_000, 1: 1_000, 2: 1_000}
        _chunk(monitor, 0, fleet)
        _chunk(monitor, 1, {**fleet, 2: 5_000})
        _chunk(monitor, 2, {**fleet, 2: 6_000})
        return monitor

    def test_digest_is_deterministic(self, make_monitor):
        assert (
            self._walk(make_monitor).decision_digest()
            == self._walk(make_monitor).decision_digest()
        )

    def test_digest_tracks_decisions(self, make_monitor):
        quiet = make_monitor()
        fleet = {0: 1_000, 1: 1_000, 2: 1_000}
        for chunk in range(3):
            _chunk(quiet, chunk, fleet)
        assert (
            quiet.decision_digest()
            != self._walk(make_monitor).decision_digest()
        )

    def test_summary_carries_the_log(self, make_monitor):
        summary = self._walk(make_monitor).summary()
        assert summary["quarantines"] == 1
        assert summary["states"][2] == "quarantined"
        assert [d["transition"] for d in summary["decisions"]] == [
            EVENT_SUSPECT,
            EVENT_QUARANTINED,
        ]
        assert summary["decision_digest"]
