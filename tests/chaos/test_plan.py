"""Fault-plan generation: deterministic, canonical, independent."""

import pytest

from repro.chaos import (
    FAULT_KINDS,
    KIND_DEVICE_CORRELATED,
    KIND_DEVICE_FAIL,
    KIND_DEVICE_FAILSLOW,
    KIND_LINK_DEGRADE,
    KIND_REFRESH_CORRUPT,
    KIND_REFRESH_FAIL,
    KIND_SHARD_STALL,
    FaultEvent,
    FaultPlan,
    SCENARIO_NAMES,
    SERVING_SCENARIOS,
    scenario_chaos,
)
from repro.chaos.plan import (
    CORRELATED_FAIL_CHUNKS,
    CORRELATED_FAIL_K,
    FAILSLOW_MAX_FACTOR,
    FAILSLOW_RESET_FACTOR,
    FAILSLOW_RESET_PERIOD,
    LINK_DEGRADE_FACTOR,
    _failslow_resets,
)
from repro.cli import build_parser
from repro.core.config import ChaosConfig


def _config(**overrides):
    base = dict(
        seed=3,
        horizon_chunks=64,
        device_fail_rate=0.05,
        device_fail_chunks=4,
        link_degrade_rate=0.05,
        link_degrade_chunks=4,
        shard_stall_rate=0.05,
        refresh_fail_rate=0.2,
        refresh_corrupt_rate=0.1,
    )
    base.update(overrides)
    return ChaosConfig(**base)


def _generate(config):
    return FaultPlan.generate(config, n_devices=4, n_shards=4)


class TestDeterminism:
    def test_same_seed_same_timeline(self):
        one = _generate(_config())
        two = _generate(_config())
        assert one.events == two.events
        assert one.digest() == two.digest()

    def test_different_seed_different_timeline(self):
        one = _generate(_config(seed=3))
        two = _generate(_config(seed=4))
        assert one.digest() != two.digest()

    def test_channels_are_independent(self):
        """Silencing one channel must not move another's events."""
        full = _generate(_config())
        no_link = _generate(_config(link_degrade_rate=0.0))
        assert full.by_kind(KIND_DEVICE_FAIL) == no_link.by_kind(
            KIND_DEVICE_FAIL
        )
        assert full.by_kind(KIND_SHARD_STALL) == no_link.by_kind(
            KIND_SHARD_STALL
        )
        assert not no_link.by_kind(KIND_LINK_DEGRADE)

    def test_channel_streams_are_pinned(self):
        """Each channel draws from a fixed ``SeedSequence`` child
        (children 4 and 5 belong to no channel); renumbering any
        channel moves its events and this digest."""
        plan = _generate(
            _config(correlated_fail_rate=0.1, failslow_rate=0.05)
        )
        assert len(plan) == 119
        assert plan.digest() == (
            "cbb3e0ebe73b206e2a40a596b5fc666f"
            "da426ece577c769c133e26c152b89fdc"
        )


class TestFixedShapes:
    """The shape of each fault is a module constant of the plan."""

    def test_link_windows_carry_the_degrade_factor(self):
        windows = _generate(_config()).by_kind(KIND_LINK_DEGRADE)
        assert windows
        assert {e.magnitude for e in windows} == {LINK_DEGRADE_FACTOR}

    def test_stalls_last_one_chunk(self):
        stalls = _generate(_config()).by_kind(KIND_SHARD_STALL)
        assert stalls
        assert {(e.duration, e.magnitude) for e in stalls} == {(1, 0.0)}


class TestShape:
    def test_events_sorted_and_within_horizon(self):
        plan = _generate(_config())
        assert list(plan.events) == sorted(plan.events)
        for event in plan.events:
            assert event.kind in FAULT_KINDS
            assert 0 <= event.start < 64
            if event.kind in (KIND_DEVICE_FAIL, KIND_LINK_DEGRADE):
                # Windows clamp to the horizon.
                assert event.start + event.duration <= 64

    def test_targets_match_topology(self):
        plan = _generate(_config())
        for event in plan.events:
            if event.kind in (KIND_REFRESH_FAIL, KIND_REFRESH_CORRUPT):
                assert event.target == -1
            else:
                assert 0 <= event.target < 4

    def test_zero_rates_empty_plan(self):
        plan = _generate(
            ChaosConfig(seed=3, horizon_chunks=64)
        )
        assert len(plan) == 0

    def test_direct_construction_is_canonical(self):
        config = ChaosConfig(seed=0)
        events = [
            FaultEvent(start=5, kind=KIND_SHARD_STALL, target=1),
            FaultEvent(start=2, kind=KIND_DEVICE_FAIL, target=0),
        ]
        plan = FaultPlan(config, events)
        assert [e.start for e in plan.events] == [2, 5]
        assert plan.as_dicts()[0]["kind"] == KIND_DEVICE_FAIL


class TestCorrelatedChannel:
    def test_blasts_hit_k_devices_together(self):
        plan = _generate(_config(correlated_fail_rate=0.1))
        blasts = plan.by_kind(KIND_DEVICE_CORRELATED)
        assert blasts
        by_start: dict[int, list] = {}
        for event in blasts:
            by_start.setdefault(event.start, []).append(event)
        for start, group in by_start.items():
            targets = [e.target for e in group]
            assert len(targets) == CORRELATED_FAIL_K
            assert len(set(targets)) == CORRELATED_FAIL_K
            assert targets == sorted(targets)
            assert {e.duration for e in group} <= set(
                range(1, CORRELATED_FAIL_CHUNKS + 1)
            )
            assert len({e.duration for e in group}) == 1

    def test_k_exceeding_fleet_rejected_up_front(self):
        with pytest.raises(ValueError, match="exceeds the fleet"):
            FaultPlan.generate(
                _config(correlated_fail_rate=0.1),
                n_devices=CORRELATED_FAIL_K - 1,
            )

    def test_enabling_new_channels_preserves_old_streams(self):
        """The new channels append SeedSequence children; the first
        four channels' streams -- and therefore every pre-existing
        plan -- must be byte-identical at equal seeds.  Fail-slow
        ramps add only their watchdog-reset blips to the outages."""
        old = _generate(_config())
        extended = _generate(
            _config(correlated_fail_rate=0.1, failslow_rate=0.05)
        )
        blips = tuple(
            blip
            for ramp in extended.by_kind(KIND_DEVICE_FAILSLOW)
            for blip in _failslow_resets(
                ramp.target, ramp.start, ramp.duration
            )
        )
        assert blips
        assert extended.by_kind(KIND_DEVICE_FAIL) == tuple(
            sorted(old.by_kind(KIND_DEVICE_FAIL) + blips)
        )
        for kind in (
            KIND_LINK_DEGRADE,
            KIND_SHARD_STALL,
            KIND_REFRESH_FAIL,
            KIND_REFRESH_CORRUPT,
        ):
            assert old.by_kind(kind) == extended.by_kind(kind)


class TestFailslowChannel:
    @staticmethod
    def _failslow_only(**overrides):
        base = dict(seed=3, horizon_chunks=64, failslow_rate=0.05)
        base.update(overrides)
        return ChaosConfig(**base)

    def test_ramps_carry_peak_magnitude_and_clamp(self):
        plan = _generate(self._failslow_only())
        ramps = plan.by_kind(KIND_DEVICE_FAILSLOW)
        assert ramps
        for event in ramps:
            assert event.magnitude == FAILSLOW_MAX_FACTOR
            # Windows clamp to the horizon end: a fail-slow device
            # stays sick until the run ends.
            assert event.start + event.duration == 64

    def test_reset_blips_follow_window_geometry(self):
        peak, reset = FAILSLOW_MAX_FACTOR, FAILSLOW_RESET_FACTOR
        plan = _generate(self._failslow_only())
        ramps = plan.by_kind(KIND_DEVICE_FAILSLOW)
        blips = plan.by_kind(KIND_DEVICE_FAIL)
        assert ramps and blips
        for ramp in ramps:
            mine = sorted(
                e.start for e in blips if e.target == ramp.target
            )
            assert mine, "every ramp past the reset factor blips"
            # factor(c) = 1 + (peak - 1) * (c - start + 1) / duration:
            # the first blip lands where the interpolation crosses
            # the reset factor.
            first = mine[0]
            duration = ramp.duration
            slope = (peak - 1.0) / duration
            assert 1.0 + slope * (first - ramp.start + 1) >= reset
            before = 1.0 + slope * (first - ramp.start)
            assert before < reset or first == ramp.start
            for a, b in zip(mine, mine[1:]):
                assert b - a == FAILSLOW_RESET_PERIOD
            for blip in mine:
                assert ramp.start <= blip < ramp.start + duration
        for event in blips:
            assert event.duration == 1


class TestScenarioFactory:
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_scenarios_build_single_channel_configs(self, name):
        config = scenario_chaos(name, seed=5)
        assert isinstance(config, ChaosConfig)
        assert config.seed == 5
        plan = _generate(config)
        kinds = {event.kind for event in plan.events}
        assert kinds, f"scenario {name} scheduled nothing"

    def test_horizon_override(self):
        config = scenario_chaos("device_failure", 0, horizon_chunks=10)
        assert config.horizon_chunks == 10
        plan = _generate(config)
        for event in plan.events:
            assert event.start + event.duration <= 10

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            scenario_chaos("power-loss")


class TestCliDefaultShape:
    """``repro chaos`` at its defaults exercises every channel: each
    scenario plans at least one fault for the default chaos seed."""

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_every_scenario_plans_a_fault(self, name):
        args = build_parser().parse_args(["chaos"])
        # The CLI plans faults over the leading 70 % of the chunks,
        # except fail-slow ramps, which run to the end of the stream.
        n_chunks = -(-args.length // args.chunk)
        horizon = (
            n_chunks
            if name == "device_failslow"
            else max(1, (7 * n_chunks) // 10)
        )
        chaos = scenario_chaos(name, args.chaos_seed, horizon)
        if name in SERVING_SCENARIOS:
            plan = FaultPlan.generate(chaos, n_shards=args.shards)
        else:
            plan = FaultPlan.generate(chaos, n_devices=args.devices)
        assert len(plan) >= 1
