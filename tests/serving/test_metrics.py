"""Tests for the rolling serving metrics."""

import pytest

from repro.cache.stats import CacheStats
from repro.serving import metrics as rolling
from repro.serving.metrics import RollingMetrics


def _stats(hits, misses, **kwargs):
    return CacheStats(hits=hits, misses=misses, **kwargs)


@pytest.fixture
def window_chunks(monkeypatch):
    """Set :data:`~repro.serving.metrics.WINDOW_CHUNKS` for this test
    only."""

    def set_chunks(value):
        monkeypatch.setattr(rolling, "WINDOW_CHUNKS", value)

    return set_chunks


class TestRollingMetrics:
    def test_window_rolls(self, window_chunks):
        window_chunks(2)
        metrics = RollingMetrics()
        metrics.record("shard:0", _stats(10, 0))
        metrics.record("shard:0", _stats(0, 10))
        assert metrics.miss_rate("shard:0") == pytest.approx(0.5)
        # Third chunk evicts the first: window is now all misses.
        metrics.record("shard:0", _stats(0, 10))
        assert metrics.miss_rate("shard:0") == pytest.approx(1.0)

    def test_totals_keep_everything(self, window_chunks):
        window_chunks(1)
        metrics = RollingMetrics()
        metrics.record("k", _stats(10, 0))
        metrics.record("k", _stats(0, 10))
        assert metrics.total("k").accesses == 20
        assert metrics.total("k").miss_rate == pytest.approx(0.5)

    def test_latency_tracks_miss_mix(self):
        metrics = RollingMetrics()
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

