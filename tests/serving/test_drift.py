"""Tests for the score-distribution drift detector."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import drift
from repro.serving.drift import DriftDetector, ks_statistic

#: Few distinct values, so draws are tie-heavy; signed zeros, both
#: infinities and NaN included.
_TIE_VALUES = [-np.inf, -2.5, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0, np.inf, np.nan]


def _union_grid_ks(sample_a, sample_b, assume_sorted):
    """The union-grid formula: both CDFs by ``searchsorted`` at every
    value of either sample."""
    sample_a = np.asarray(sample_a, dtype=np.float64)
    sample_b = np.asarray(sample_b, dtype=np.float64)
    if not assume_sorted:
        sample_a = np.sort(sample_a)
        sample_b = np.sort(sample_b)
    grid = np.concatenate([sample_a, sample_b])
    cdf_a = np.searchsorted(sample_a, grid, side="right") / sample_a.size
    cdf_b = np.searchsorted(sample_b, grid, side="right") / sample_b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def _sample(size):
    return st.lists(
        st.one_of(
            st.sampled_from(_TIE_VALUES),
            st.floats(-4.0, 4.0, allow_subnormal=False),
        ),
        min_size=1,
        max_size=size,
    )


class TestKsStatistic:
    def test_identical_samples_score_zero(self):
        sample = np.linspace(0, 1, 100)
        assert ks_statistic(sample, sample) == 0.0

    def test_disjoint_samples_score_one(self):
        assert ks_statistic(
            np.zeros(50), np.ones(50)
        ) == pytest.approx(1.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0, 1, 300)
        b = rng.normal(0.5, 1.2, 200)
        grid = np.concatenate([a, b])
        brute = max(
            abs(np.mean(a <= v) - np.mean(b <= v)) for v in grid
        )
        assert ks_statistic(a, b) == pytest.approx(brute)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ks_statistic(np.array([]), np.array([1.0]))

    @settings(max_examples=300, deadline=None)
    @given(a=_sample(300), b=_sample(300), assume_sorted=st.booleans())
    def test_merge_matches_union_grid(self, a, b, assume_sorted):
        a, b = np.array(a), np.array(b)
        if assume_sorted:
            a, b = np.sort(a), np.sort(b)
        got = ks_statistic(a, b, assume_sorted=assume_sorted)
        expected = _union_grid_ks(a, b, assume_sorted)
        assert np.float64(got).tobytes() == np.float64(expected).tobytes()


@pytest.fixture
def make_detector(monkeypatch):
    """Build a detector, setting the module's decision constants
    (named in lower case) for this test only."""

    def make(threshold=-1.2816, quantile=0.1, **knobs):
        # Threshold at the 10% quantile of the stationary N(0, 1)
        # score stream the tests feed in.
        values = dict(
            ks_threshold=0.2,
            quantile_tolerance=0.2,
            patience=2,
            baseline_chunks=2,
        )
        values.update(knobs)
        for name, value in values.items():
            monkeypatch.setattr(drift, name.upper(), value)
        return DriftDetector(threshold, quantile)

    return make


class TestDriftDetector:
    def test_baseline_then_stationary_never_fires(self, make_detector):
        rng = np.random.default_rng(1)
        detector = make_detector()
        for _ in range(10):
            report = detector.observe(rng.normal(0, 1, 3000))
            assert not report.drifted
        assert detector.ready

    def test_baselining_flag(self, make_detector):
        rng = np.random.default_rng(2)
        detector = make_detector(baseline_chunks=3)
        reports = [
            detector.observe(rng.normal(0, 1, 500)) for _ in range(4)
        ]
        assert [r.baselining for r in reports] == [
            True, True, True, False,
        ]
        assert np.isnan(reports[0].ks)
        assert not np.isnan(reports[3].ks)

    def test_distribution_shift_fires_after_patience(self, make_detector):
        rng = np.random.default_rng(3)
        detector = make_detector(patience=2)
        for _ in range(4):
            detector.observe(rng.normal(0, 1, 2000))
        first = detector.observe(rng.normal(4, 1, 2000))
        assert first.signal and not first.drifted  # debounced
        second = detector.observe(rng.normal(4, 1, 2000))
        assert second.signal and second.drifted

    def test_quantile_signal_catches_threshold_starvation(self, make_detector):
        """A frozen engine under drift scores ~all traffic below its
        admission cut -- the cheap signal must catch it even when the
        KS alarm is off."""
        rng = np.random.default_rng(4)
        detector = make_detector(
            threshold=0.1,
            ks_threshold=1.0,  # disable the KS alarm
            quantile_tolerance=0.3,
            patience=1,
        )
        for _ in range(2):
            detector.observe(rng.uniform(0.2, 1.0, 1000))
        report = detector.observe(rng.uniform(-1.0, 0.05, 1000))
        assert report.below_threshold_fraction > 0.9
        assert report.drifted

    def test_intermittent_signal_resets_patience(self, make_detector):
        rng = np.random.default_rng(5)
        detector = make_detector(patience=2)
        for _ in range(3):
            detector.observe(rng.normal(0, 1, 2000))
        assert detector.observe(rng.normal(4, 1, 2000)).signal
        assert not detector.observe(rng.normal(0, 1, 2000)).signal
        # Streak was broken: one more drifted chunk is not enough.
        assert not detector.observe(rng.normal(4, 1, 2000)).drifted

    def test_rebase_restarts_baseline(self, make_detector):
        rng = np.random.default_rng(6)
        detector = make_detector()
        for _ in range(3):
            detector.observe(rng.normal(0, 1, 1000))
        assert detector.ready
        detector.rebase(threshold=0.5, quantile=0.1)
        assert not detector.ready
        report = detector.observe(rng.normal(4, 1, 1000))
        assert report.baselining and not report.drifted

    def test_reference_subsampling_bounds_memory(self, make_detector):
        rng = np.random.default_rng(7)
        detector = make_detector(baseline_chunks=1)
        detector.observe(rng.normal(0, 1, 100_000))
        assert detector._reference.size <= 8192
        # Still detects an obvious shift.
        report = detector.observe(rng.normal(5, 1, 2000))
        assert report.signal

    def test_empty_chunk_is_rejected(self, make_detector):
        detector = make_detector()
        with pytest.raises(ValueError):
            detector.observe(np.array([]))
