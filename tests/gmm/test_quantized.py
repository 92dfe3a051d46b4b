"""Tests for the fixed-point GMM emulation."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import GmmEngineConfig, IcgmmConfig
from repro.core.pipeline import StagedPipeline
from repro.gmm.model import GaussianMixture
from repro.gmm.quantized import FixedPointFormat, QuantizedGmm, _ExpTable


def _mixture():
    weights = np.array([0.5, 0.3, 0.2])
    means = np.array([[0.0, 0.0], [3.0, 1.0], [-2.0, 2.0]])
    covariances = np.array([np.eye(2), 0.5 * np.eye(2), 2.0 * np.eye(2)])
    return GaussianMixture(weights, means, covariances)


class TestFixedPointFormat:
    def test_scale(self):
        fmt = FixedPointFormat(total_bits=16, frac_bits=8)
        assert fmt.scale == pytest.approx(1.0 / 256.0)

    def test_quantize_rounds_to_grid(self):
        fmt = FixedPointFormat(total_bits=16, frac_bits=8)
        got = fmt.quantize(np.array([0.00196]))  # ~0.5 LSB above 1 LSB/2
        assert got[0] * 256 == pytest.approx(round(0.00196 * 256))

    def test_quantize_saturates(self):
        fmt = FixedPointFormat(total_bits=8, frac_bits=4)
        assert fmt.quantize(np.array([1000.0]))[0] == fmt.max_value
        assert fmt.quantize(np.array([-1000.0]))[0] == fmt.min_value

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            FixedPointFormat(total_bits=1, frac_bits=0)
        with pytest.raises(ValueError):
            FixedPointFormat(total_bits=8, frac_bits=8)

    @settings(max_examples=50, deadline=None)
    @given(value=st.floats(min_value=-100, max_value=100))
    def test_property_quantize_idempotent(self, value):
        fmt = FixedPointFormat(total_bits=32, frac_bits=16)
        once = fmt.quantize(np.array([value]))
        twice = fmt.quantize(once)
        np.testing.assert_array_equal(once, twice)

    @settings(max_examples=50, deadline=None)
    @given(value=st.floats(min_value=-1000, max_value=1000))
    def test_property_error_bounded_by_half_lsb(self, value):
        fmt = FixedPointFormat(total_bits=32, frac_bits=12)
        got = float(fmt.quantize(np.array([value]))[0])
        if fmt.min_value < value < fmt.max_value:
            assert abs(got - value) <= fmt.scale / 2 + 1e-12


class TestExpTable:
    def test_close_to_exp_in_range(self):
        table = _ExpTable(input_floor=-40.0, address_bits=12)
        xs = np.linspace(-39.0, 0.0, 1000)
        np.testing.assert_allclose(table(xs), np.exp(xs), atol=1e-4)

    def test_flushes_below_floor_to_zero(self):
        table = _ExpTable(input_floor=-10.0)
        assert table(np.array([-11.0]))[0] == 0.0

    def test_at_zero(self):
        table = _ExpTable()
        assert table(np.array([0.0]))[0] == pytest.approx(1.0, rel=1e-6)

    def test_rejects_positive_floor(self):
        with pytest.raises(ValueError, match="negative"):
            _ExpTable(input_floor=1.0)


class TestQuantizedGmm:
    def test_scores_close_to_float_reference(self):
        model = _mixture()
        quantized = QuantizedGmm(model)
        rng = np.random.default_rng(0)
        points = rng.uniform(-5, 5, size=(500, 2))
        error = quantized.max_abs_error(model, points)
        # Scores are O(0.1); 32-bit Q12.20 keeps error tiny.
        assert error < 1e-3

    def test_preserves_score_ordering_for_policy(self):
        # What the cache policy needs: hot pages (high float score)
        # still rank above cold ones after quantization.
        model = _mixture()
        quantized = QuantizedGmm(model)
        hot = np.array([[0.0, 0.0]])
        cold = np.array([[8.0, 8.0]])
        assert (
            quantized.score_samples(hot)[0]
            > quantized.score_samples(cold)[0]
        )

    def test_coarse_format_degrades_gracefully(self):
        model = _mixture()
        fine = QuantizedGmm(model, FixedPointFormat(32, 24))
        coarse = QuantizedGmm(model, FixedPointFormat(16, 8))
        rng = np.random.default_rng(1)
        points = rng.uniform(-4, 4, size=(200, 2))
        assert fine.max_abs_error(model, points) <= coarse.max_abs_error(
            model, points
        ) + 1e-12

    def test_rejects_non_2d_model(self):
        model_3d = GaussianMixture(
            np.array([1.0]), np.zeros((1, 3)), np.eye(3)[None]
        )
        with pytest.raises(ValueError, match="2-D"):
            QuantizedGmm(model_3d)

    def test_rejects_bad_point_shape(self):
        quantized = QuantizedGmm(_mixture())
        with pytest.raises(ValueError, match=r"\(N, 2\)"):
            quantized.score_samples(np.zeros((4, 3)))

    def test_weight_buffer_bits(self):
        quantized = QuantizedGmm(_mixture(), FixedPointFormat(32, 20))
        assert quantized.weight_buffer_bits == 3 * 6 * 32

    def test_mac_ops_scale_with_components(self):
        quantized = QuantizedGmm(_mixture())
        assert quantized.multiply_accumulate_ops_per_point() == 3 * 7

    def test_single_point_1d_input(self):
        quantized = QuantizedGmm(_mixture())
        assert quantized.score_samples(np.array([0.0, 0.0])).shape == (1,)


def _narrow_mixture():
    """One component's first axis has a 0.002 std (the page axis of a
    trained component on a hot key); its inverse-covariance entry is
    250,000, far past Q12.20's 2,048."""
    return GaussianMixture(
        np.array([0.6, 0.4]),
        np.array([[0.0, 0.0], [0.5, 1.0]]),
        np.array([np.diag([0.002**2, 1.0]), np.eye(2)]),
    )


class TestDefaultFormat:
    """Without ``fmt``, 32-bit words keep as many fraction bits as the
    largest finite constant leaves room for."""

    def test_model_that_fits_keeps_q12_20(self):
        assert QuantizedGmm(_mixture()).fmt == FixedPointFormat(32, 20)

    def test_narrow_axis_constants_within_one_lsb(self):
        model = _narrow_mixture()
        quantized = QuantizedGmm(model)
        assert quantized.fmt == FixedPointFormat(32, 13)
        inverses = np.linalg.inv(model.covariances)
        for stored, exact in (
            (quantized._inv_a, inverses[:, 0, 0]),
            (quantized._inv_b, inverses[:, 0, 1]),
            (quantized._inv_c, inverses[:, 1, 1]),
        ):
            np.testing.assert_array_less(
                np.abs(stored - exact), quantized.fmt.scale
            )

    def test_narrow_component_scores_keep_their_spread(self):
        """Three and five stds off the narrow mean its term differs
        by e^8 (the score ~17x); with the inverse covariance saturated
        at Q12.20's 2,048 both points score the same."""
        quantized = QuantizedGmm(_narrow_mixture())
        near, far = quantized.score_samples(
            np.array([[0.006, 0.0], [0.010, 0.0]])
        )
        assert far < near / 10

    def test_infinite_log_constant_is_ignored(self):
        """A zero-weight component's log constant is -inf; it does
        not move the binary point."""
        model = GaussianMixture(
            np.array([1.0, 0.0]),
            np.zeros((2, 2)),
            np.array([np.eye(2), np.eye(2)]),
        )
        assert QuantizedGmm(model).fmt == FixedPointFormat(32, 20)

    def test_pipeline_matches_float_miss_rate(self):
        """hashmap, 60,000 accesses, K = 12: the fixed-point combined
        strategy misses within 0.05 points of float64's (saturated
        Q12.20 constants read 0.13 points apart)."""
        base = IcgmmConfig(
            trace_length=60_000,
            gmm=GmmEngineConfig(
                n_components=12, max_iter=30, max_train_samples=15_000
            ),
        )
        miss = {}
        for quantized in (False, True):
            config = dataclasses.replace(
                base,
                gmm=dataclasses.replace(
                    base.gmm, use_quantized=quantized
                ),
            )
            result = StagedPipeline(config).run_benchmark(
                "hashmap", strategies=("lru", "gmm-caching-eviction")
            )
            miss[quantized] = result.outcomes[
                "gmm-caching-eviction"
            ].miss_rate_percent
        assert abs(miss[True] - miss[False]) < 0.05


class TestVectorizedScoring:
    """The batched path must match the per-component reference loop
    bit for bit (ROADMAP fast-path gap, closed)."""

    def test_matches_reference_on_random_points(self):
        quantized = QuantizedGmm(_mixture())
        rng = np.random.default_rng(0)
        points = rng.uniform(-6, 6, size=(4000, 2))
        np.testing.assert_array_equal(
            quantized.score_samples(points),
            quantized.score_samples_reference(points),
        )

    def test_matches_reference_across_formats(self):
        rng = np.random.default_rng(1)
        points = rng.uniform(-4, 4, size=(500, 2))
        for fmt in (
            FixedPointFormat(32, 20),
            FixedPointFormat(16, 8),
            FixedPointFormat(12, 6),
            FixedPointFormat(8, 4),
        ):
            quantized = QuantizedGmm(_mixture(), fmt)
            np.testing.assert_array_equal(
                quantized.score_samples(points),
                quantized.score_samples_reference(points),
            )

    def test_matches_reference_under_saturation(self):
        # Concentrated identical components drive every term to ~1,
        # overflowing a narrow accumulator: the saturating sequential
        # adds differ from a plain sum, and the vectorized path must
        # reproduce them through its row fallback.
        k = 6
        model = GaussianMixture(
            np.full(k, 1.0 / k),
            np.zeros((k, 2)),
            np.tile(np.eye(2) * 1e-6, (k, 1, 1)),
        )
        fmt = FixedPointFormat(total_bits=10, frac_bits=8)
        quantized = QuantizedGmm(model, fmt)
        points = np.vstack(
            [np.zeros((8, 2)), np.full((8, 2), 9.0)]
        )
        got = quantized.score_samples(points)
        np.testing.assert_array_equal(
            got, quantized.score_samples_reference(points)
        )
        assert got[0] == fmt.max_value  # saturation really happened

    def test_blocked_evaluation_is_seamless(self):
        quantized = QuantizedGmm(_mixture())
        quantized._BLOCK_ELEMENTS = 64  # force many tiny blocks
        rng = np.random.default_rng(2)
        points = rng.uniform(-5, 5, size=(333, 2))
        np.testing.assert_array_equal(
            quantized.score_samples(points),
            quantized.score_samples_reference(points),
        )

    def test_wide_format_uses_reference_guard(self):
        # total_bits > 52: partial sums may not be exact in float64,
        # so the vectorized path must delegate wholesale.
        quantized = QuantizedGmm(
            _mixture(), FixedPointFormat(total_bits=60, frac_bits=20)
        )
        points = np.array([[0.0, 0.0], [1.0, -1.0]])
        np.testing.assert_array_equal(
            quantized.score_samples(points),
            quantized.score_samples_reference(points),
        )
