"""Tests for the rolling serving metrics."""

import pytest

from repro.cache.stats import CacheStats
from repro.serving.metrics import RollingMetrics


def _stats(hits, misses, **kwargs):
    return CacheStats(hits=hits, misses=misses, **kwargs)


class TestRollingMetrics:
    def test_window_rolls(self):
        metrics = RollingMetrics(window_chunks=2)
        metrics.record("shard:0", _stats(10, 0))
        metrics.record("shard:0", _stats(0, 10))
        assert metrics.miss_rate("shard:0") == pytest.approx(0.5)
        # Third chunk evicts the first: window is now all misses.
        metrics.record("shard:0", _stats(0, 10))
        assert metrics.miss_rate("shard:0") == pytest.approx(1.0)

    def test_totals_keep_everything(self):
        metrics = RollingMetrics(window_chunks=1)
        metrics.record("k", _stats(10, 0))
        metrics.record("k", _stats(0, 10))
        assert metrics.total("k").accesses == 20
        assert metrics.total("k").miss_rate == pytest.approx(0.5)

    def test_latency_tracks_miss_mix(self):
        metrics = RollingMetrics(window_chunks=4)
        metrics.record("fast", _stats(100, 0))
        metrics.record("slow", _stats(0, 100, fills=100))
        assert metrics.latency_us("fast") == pytest.approx(1.0)
        assert metrics.latency_us("slow") > 50.0

    def test_snapshot_shares(self):
        metrics = RollingMetrics()
        metrics.record("a", _stats(30, 0))
        metrics.record("b", _stats(10, 0))
        snapshot = metrics.snapshot()
        assert snapshot["a"]["traffic_share"] == pytest.approx(0.75)
        assert snapshot["b"]["traffic_share"] == pytest.approx(0.25)

    def test_unknown_key_is_empty(self):
        metrics = RollingMetrics()
        assert metrics.total("nope").accesses == 0
        assert metrics.miss_rate("nope") == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RollingMetrics(window_chunks=0)

    def test_fresh_key_snapshot_is_all_zeros(self):
        """A key seen only through empty deltas must read 0.0, not NaN."""
        metrics = RollingMetrics()
        metrics.record("cold", _stats(0, 0))
        assert metrics.miss_rate("cold") == 0.0
        assert metrics.latency_us("cold") == 0.0
        snapshot = metrics.snapshot()
        assert snapshot["cold"]["miss_rate"] == 0.0
        assert snapshot["cold"]["latency_us"] == 0.0
        assert snapshot["cold"]["traffic_share"] == 0.0


class TestDegradedLens:
    def test_degraded_deltas_aggregate_separately(self):
        metrics = RollingMetrics()
        metrics.record("shard:0", _stats(80, 20))
        metrics.record("shard:0", _stats(0, 10), degraded=True)
        # Degraded traffic still lands in the ordinary views...
        assert metrics.total("shard:0").accesses == 110
        # ...and additionally under the degraded lens.
        assert metrics.degraded_total("shard:0").accesses == 10
        assert metrics.degraded_miss_rate("shard:0") == pytest.approx(
            1.0
        )
        snapshot = metrics.snapshot()
        assert snapshot["shard:0"]["degraded_accesses"] == 10.0

    def test_clean_key_has_no_degraded_fields(self):
        metrics = RollingMetrics()
        metrics.record("shard:0", _stats(10, 0))
        assert metrics.degraded_total("shard:0").accesses == 0
        assert metrics.degraded_miss_rate("shard:0") == 0.0
        # The snapshot format stays pre-chaos byte-identical.
        assert "degraded_accesses" not in metrics.snapshot()["shard:0"]


class TestFailureEvents:
    def test_events_filter_by_key(self):
        metrics = RollingMetrics()
        metrics.record_event("device:0", "device-down", 3, duration=2)
        metrics.record_event("shard:1", "stall-degraded", 4)
        assert len(metrics.events()) == 2
        only = metrics.events("device:0")
        assert [e.kind for e in only] == ["device-down"]
        assert only[0].as_dict() == {
            "key": "device:0",
            "kind": "device-down",
            "chunk_index": 3,
            "duration": 2,
        }

    def test_recovery_latencies_pair_per_key(self):
        metrics = RollingMetrics()
        metrics.record_event("device:0", "device-down", 2)
        metrics.record_event("device:1", "device-down", 3)
        metrics.record_event("device:0", "device-restored", 6)
        # device:1's outage is still open: it contributes nothing.
        assert metrics.recovery_latencies(
            "device-down", "device-restored"
        ) == [4]


class TestMergeSnapshots:
    def test_rates_are_access_weighted(self):
        a = RollingMetrics()
        a.record("tenant:0", _stats(90, 10))
        b = RollingMetrics()
        b.record("tenant:0", _stats(0, 100))
        merged = RollingMetrics.merge_snapshots(
            a.snapshot(), b.snapshot()
        )
        # 10 + 100 misses over 200 accesses -- not the mean of the
        # two miss rates (0.1 and 1.0 would average to 0.55).
        assert merged["tenant:0"]["miss_rate"] == pytest.approx(0.55)
        assert merged["tenant:0"]["accesses"] == 200.0
        assert merged["tenant:0"]["traffic_share"] == 1.0

    def test_traffic_share_spans_all_inputs(self):
        a = RollingMetrics()
        a.record("tenant:0", _stats(30, 0))
        b = RollingMetrics()
        b.record("tenant:1", _stats(10, 0))
        merged = RollingMetrics.merge_snapshots(
            a.snapshot(), b.snapshot()
        )
        assert merged["tenant:0"]["traffic_share"] == pytest.approx(
            0.75
        )
        assert merged["tenant:1"]["traffic_share"] == pytest.approx(
            0.25
        )

    def test_keys_keep_first_seen_order(self):
        a = RollingMetrics()
        a.record("tenant:b", _stats(1, 0))
        b = RollingMetrics()
        b.record("tenant:a", _stats(1, 0))
        b.record("tenant:b", _stats(1, 0))
        merged = RollingMetrics.merge_snapshots(
            a.snapshot(), b.snapshot()
        )
        assert list(merged) == ["tenant:b", "tenant:a"]

    def test_degraded_lens_survives_only_where_present(self):
        a = RollingMetrics()
        a.record("tenant:0", _stats(80, 20))
        a.record("tenant:0", _stats(0, 10), degraded=True)
        a.record("tenant:1", _stats(50, 0))
        b = RollingMetrics()
        b.record("tenant:0", _stats(10, 0))
        merged = RollingMetrics.merge_snapshots(
            a.snapshot(), b.snapshot()
        )
        assert merged["tenant:0"]["degraded_accesses"] == 10.0
        assert merged["tenant:0"][
            "degraded_miss_rate"
        ] == pytest.approx(1.0)
        # tenant:1 never served degraded traffic: plain row shape.
        assert "degraded_accesses" not in merged["tenant:1"]

    def test_empty_and_zero_access_inputs(self):
        zero = RollingMetrics()
        zero.record("cold", _stats(0, 0))
        merged = RollingMetrics.merge_snapshots({}, zero.snapshot())
        assert merged["cold"]["miss_rate"] == 0.0
        assert merged["cold"]["traffic_share"] == 0.0
        assert RollingMetrics.merge_snapshots() == {}

    def test_single_snapshot_round_trips(self):
        metrics = RollingMetrics()
        metrics.record("tenant:0", _stats(75, 25))
        metrics.record("tenant:1", _stats(40, 10))
        snapshot = metrics.snapshot()
        merged = RollingMetrics.merge_snapshots(snapshot)
        for key, row in snapshot.items():
            for field, value in row.items():
                assert merged[key][field] == pytest.approx(value)


class TestRecoveryLatencyEdgeCases:
    def test_overlapping_downs_pair_with_first(self):
        """A second down before the restore must not reset the clock:
        the pair measures the full outage, from its first down."""
        metrics = RollingMetrics()
        metrics.record_event("device:0", "device-down", 2)
        metrics.record_event("device:0", "device-down", 4)
        metrics.record_event("device:0", "device-restored", 7)
        assert metrics.recovery_latencies(
            "device-down", "device-restored"
        ) == [5]

    def test_recovery_without_failure_contributes_nothing(self):
        metrics = RollingMetrics()
        metrics.record_event("device:0", "device-restored", 3)
        assert (
            metrics.recovery_latencies(
                "device-down", "device-restored"
            )
            == []
        )

    def test_sequential_outages_pair_independently(self):
        metrics = RollingMetrics()
        metrics.record_event("device:0", "device-down", 1)
        metrics.record_event("device:0", "device-restored", 3)
        metrics.record_event("device:0", "device-down", 5)
        metrics.record_event("device:0", "device-restored", 6)
        assert metrics.recovery_latencies(
            "device-down", "device-restored"
        ) == [2, 1]

    def test_merged_timelines_pair_in_causal_order(self):
        """Two replicas each saw half of an outage; the merged view
        pairs the down with the restore across instances."""
        a = RollingMetrics()
        a.record_event("device:0", "device-down", 2)
        b = RollingMetrics()
        b.record_event("device:0", "device-restored", 5)
        merged = RollingMetrics.merge_event_timelines(
            a.events(), b.events()
        )
        assert [e.chunk_index for e in merged] == [2, 5]
        replay = RollingMetrics()
        replay._events = merged
        assert replay.recovery_latencies(
            "device-down", "device-restored"
        ) == [3]

    def test_same_tick_merge_is_input_order_independent(self):
        a = RollingMetrics()
        a.record_event("device:1", "device-down", 4)
        b = RollingMetrics()
        b.record_event("device:0", "device-down", 4)
        one = RollingMetrics.merge_event_timelines(
            a.events(), b.events()
        )
        two = RollingMetrics.merge_event_timelines(
            b.events(), a.events()
        )
        assert one == two
        assert [e.key for e in one] == ["device:0", "device:1"]


class TestEwmaSignals:
    def test_record_timed_maintains_ewmas(self):
        metrics = RollingMetrics(ewma_alpha=0.5)
        assert metrics.ewma_latency_ns("d") is None
        assert metrics.ewma_miss_rate("d") is None
        metrics.record_timed("d", _stats(90, 10), 100_000)
        # First observation seeds the estimate directly.
        assert metrics.ewma_latency_ns("d") == pytest.approx(1_000.0)
        assert metrics.ewma_miss_rate("d") == pytest.approx(0.1)
        metrics.record_timed("d", _stats(50, 50), 300_000)
        assert metrics.ewma_latency_ns("d") == pytest.approx(2_000.0)
        assert metrics.ewma_miss_rate("d") == pytest.approx(0.3)

    def test_zero_access_chunk_leaves_ewmas_untouched(self):
        metrics = RollingMetrics(ewma_alpha=0.5)
        metrics.record_timed("d", _stats(100, 0), 100_000)
        before = metrics.ewma_latency_ns("d")
        metrics.record_timed("d", _stats(0, 0), 0)
        assert metrics.ewma_latency_ns("d") == before

    def test_reset_ewma_rebases_the_estimate(self):
        metrics = RollingMetrics(ewma_alpha=0.5)
        metrics.record_timed("d", _stats(0, 100), 1_000_000)
        metrics.reset_ewma("d")
        assert metrics.ewma_latency_ns("d") is None
        # The next observation seeds fresh, with no sick history.
        metrics.record_timed("d", _stats(100, 0), 100_000)
        assert metrics.ewma_latency_ns("d") == pytest.approx(1_000.0)
        assert metrics.ewma_miss_rate("d") == pytest.approx(0.0)

