"""Injector queries: pure lookups, deduped observed timeline."""

import pytest

from repro.chaos import (
    KIND_DEVICE_CORRELATED,
    KIND_DEVICE_FAIL,
    KIND_DEVICE_FAILSLOW,
    KIND_LINK_DEGRADE,
    KIND_REFRESH_CORRUPT,
    KIND_REFRESH_FAIL,
    KIND_SHARD_STALL,
    FaultEvent,
    FaultInjector,
    FaultPlan,
)
from repro.core.config import ChaosConfig


def _injector(events):
    config = ChaosConfig(seed=0)
    return FaultInjector(FaultPlan(config, events))


class TestFromConfig:
    """A config arms the injector by its presence; ``None`` is off."""

    def test_none_when_disabled(self):
        assert FaultInjector.from_config(None) is None
        assert FaultInjector.from_config(None, n_devices=4) is None

    def test_default_config_arms(self):
        injector = FaultInjector.from_config(ChaosConfig(), n_devices=2)
        assert isinstance(injector, FaultInjector)
        # Every default rate is 0: armed, but the plan is empty.
        assert len(injector.plan) == 0

    def test_injector_when_enabled(self):
        injector = FaultInjector.from_config(
            ChaosConfig(seed=1, device_fail_rate=0.5),
            n_devices=2,
        )
        assert isinstance(injector, FaultInjector)
        assert len(injector.plan) > 0


class TestQueries:
    def test_device_windows(self):
        injector = _injector(
            [
                FaultEvent(
                    start=3, kind=KIND_DEVICE_FAIL, target=1,
                    duration=2,
                )
            ]
        )
        assert not injector.device_down(1, 2)
        assert injector.device_down(1, 3)
        assert injector.device_down(1, 4)
        assert not injector.device_down(1, 5)
        assert not injector.device_down(0, 3)

    def test_link_factor(self):
        injector = _injector(
            [
                FaultEvent(
                    start=1, kind=KIND_LINK_DEGRADE, target=0,
                    duration=2, magnitude=4.0,
                )
            ]
        )
        assert injector.link_factor(0, 0) == 1.0
        assert injector.link_factor(0, 1) == 4.0
        assert injector.link_factor(1, 1) == 1.0

    def test_stall_and_refresh(self):
        injector = _injector(
            [
                FaultEvent(
                    start=2, kind=KIND_SHARD_STALL, target=3,
                    duration=2,
                ),
                FaultEvent(start=0, kind=KIND_REFRESH_FAIL, target=-1),
                FaultEvent(
                    start=1, kind=KIND_REFRESH_CORRUPT, target=-1
                ),
            ]
        )
        assert injector.shard_stalled(2, 3) is True
        assert injector.shard_stalled(2, 0) is False
        assert injector.refresh_fault(0) == "fail"
        assert injector.refresh_fault(1) == "corrupt"
        assert injector.refresh_fault(2) is None
        # A stall lasts one chunk, whatever duration its plan event
        # was written with.
        (stall,) = [
            e for e in injector.records if e.kind == KIND_SHARD_STALL
        ]
        assert (stall.start, stall.target, stall.duration) == (2, 3, 1)


class TestOverlappingWindows:
    def test_same_target_windows_merge(self):
        """Regression: two overlapping outage windows on the same
        (kind, target) must behave -- and be recorded -- as one
        continuous outage, not double-recorded or truncated at the
        first window's end."""
        injector = _injector(
            [
                FaultEvent(
                    start=2, kind=KIND_DEVICE_FAIL, target=1,
                    duration=3,
                ),
                FaultEvent(
                    start=4, kind=KIND_DEVICE_FAIL, target=1,
                    duration=3,
                ),
            ]
        )
        assert not injector.device_down(1, 1)
        for chunk in range(2, 7):
            assert injector.device_down(1, chunk)
        assert not injector.device_down(1, 7)
        # The observed timeline holds exactly one record.
        assert len(injector.records) == 1
        record = injector.records[0]
        assert record.start == 2 and record.duration == 5

    def test_correlated_counts_as_outage(self):
        injector = _injector(
            [
                FaultEvent(
                    start=3, kind=KIND_DEVICE_CORRELATED, target=0,
                    duration=2,
                ),
                FaultEvent(
                    start=3, kind=KIND_DEVICE_CORRELATED, target=2,
                    duration=2,
                ),
            ]
        )
        assert injector.device_down(0, 3)
        assert injector.device_down(2, 4)
        assert not injector.device_down(1, 3)
        assert not injector.device_down(0, 5)

    def test_correlated_and_plain_windows_merge(self):
        """A correlated blast overlapping a plain outage on the same
        device is one continuous down window."""
        injector = _injector(
            [
                FaultEvent(
                    start=2, kind=KIND_DEVICE_FAIL, target=1,
                    duration=2,
                ),
                FaultEvent(
                    start=3, kind=KIND_DEVICE_CORRELATED, target=1,
                    duration=3,
                ),
            ]
        )
        for chunk in range(2, 6):
            assert injector.device_down(1, chunk)
        assert not injector.device_down(1, 6)


class TestFailslowFactor:
    def test_ramp_interpolates_to_peak(self):
        injector = _injector(
            [
                FaultEvent(
                    start=4, kind=KIND_DEVICE_FAILSLOW, target=2,
                    duration=4, magnitude=5.0,
                )
            ]
        )
        assert injector.failslow_factor(2, 3) == 1.0
        assert injector.failslow_factor(2, 4) == pytest.approx(2.0)
        assert injector.failslow_factor(2, 5) == pytest.approx(3.0)
        assert injector.failslow_factor(2, 6) == pytest.approx(4.0)
        assert injector.failslow_factor(2, 7) == pytest.approx(5.0)
        assert injector.failslow_factor(2, 8) == 1.0
        assert injector.failslow_factor(0, 5) == 1.0

    def test_repeated_queries_record_once(self):
        injector = _injector(
            [
                FaultEvent(
                    start=0, kind=KIND_DEVICE_FAILSLOW, target=1,
                    duration=8, magnitude=3.0,
                )
            ]
        )
        for chunk in range(8):
            injector.failslow_factor(1, chunk)
            injector.failslow_factor(1, chunk)
        assert len(injector.records) == 1
        assert injector.records[0].kind == KIND_DEVICE_FAILSLOW


class TestObservedTimeline:
    def test_queries_are_pure_and_records_dedupe(self):
        injector = _injector(
            [
                FaultEvent(
                    start=3, kind=KIND_DEVICE_FAIL, target=1,
                    duration=2,
                )
            ]
        )
        # A retried chunk re-queries the same tick: same answer,
        # recorded once.
        for _ in range(3):
            assert injector.device_down(1, 3)
        assert injector.device_down(1, 4)  # same window, later tick
        assert len(injector.records) == 1
        record = injector.records[0]
        assert record.start == 3 and record.duration == 2

    def test_timeline_only_holds_fired_faults(self):
        injector = _injector(
            [
                FaultEvent(start=0, kind=KIND_REFRESH_FAIL, target=-1),
                FaultEvent(start=9, kind=KIND_REFRESH_FAIL, target=-1),
            ]
        )
        injector.refresh_fault(0)
        # Build 9 never happens: it must not appear in the record.
        timeline = injector.timeline()
        assert len(timeline) == 1
        assert timeline[0]["start"] == 0

    def test_digest_tracks_observations(self):
        events = [
            FaultEvent(start=0, kind=KIND_REFRESH_FAIL, target=-1)
        ]
        one, two = _injector(events), _injector(events)
        assert one.timeline_digest() == two.timeline_digest()
        one.refresh_fault(0)
        assert one.timeline_digest() != two.timeline_digest()
        two.refresh_fault(0)
        assert one.timeline_digest() == two.timeline_digest()
