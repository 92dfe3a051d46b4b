"""Fixed-point GMM inference emulating the FPGA score pipeline.

The hardware engine of Sec. 4.1 streams (P, T) points through a deep
pipeline with initiation interval 1: per Gaussian it evaluates the
quadratic form with the precomputed inverse covariance, feeds the
exponent into an exp unit, weights by ``pi_k`` and accumulates through a
shift register.  This module reproduces that datapath bit-for-bit *in
structure*: all constants are stored in a fixed-point format, the exp
unit is a lookup table with linear interpolation, and the accumulator is
quantized after every addition.

The point of the emulation is twofold: it lets the test suite bound the
score error introduced by hardware quantization, and it provides the
operation counts that the FPGA resource model (:mod:`repro.hardware`)
uses to size the engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gmm.model import GaussianMixture


@dataclass(frozen=True)
class FixedPointFormat:
    """Signed fixed-point format ``Q(total_bits - frac_bits).frac_bits``.

    Attributes
    ----------
    total_bits:
        Word width including the sign bit (e.g. 32).
    frac_bits:
        Bits to the right of the binary point (e.g. 20).
    """

    total_bits: int = 32
    frac_bits: int = 20

    def __post_init__(self) -> None:
        if self.total_bits < 2:
            raise ValueError("total_bits must be >= 2")
        if not 0 <= self.frac_bits < self.total_bits:
            raise ValueError(
                "frac_bits must satisfy 0 <= frac_bits < total_bits"
            )

    @property
    def scale(self) -> float:
        """Value of one least-significant bit."""
        return 2.0 ** (-self.frac_bits)

    @property
    def max_value(self) -> float:
        """Largest representable value."""
        return (2 ** (self.total_bits - 1) - 1) * self.scale

    @property
    def min_value(self) -> float:
        """Smallest (most negative) representable value."""
        return -(2 ** (self.total_bits - 1)) * self.scale

    def quantize(self, values: np.ndarray) -> np.ndarray:
        """Round ``values`` to the grid and saturate to the range.

        Saturation (rather than wrap-around) matches the HLS
        ``ap_fixed<..., AP_RND, AP_SAT>`` configuration a careful
        implementation would use.
        """
        values = np.asarray(values, dtype=np.float64)
        quantized = np.round(values / self.scale) * self.scale
        return np.clip(quantized, self.min_value, self.max_value)


def _fitting_format(*constants: np.ndarray) -> FixedPointFormat:
    """The default 32-bit word, with its binary point moved left just
    far enough that the largest finite constant does not saturate.

    A mixture whose constants fit Q12.20 keeps it.  A narrow
    component needs more integer bits: a page-axis std of 0.002 in
    scaled units gives inverse-covariance entries near 250,000, far
    past Q12.20's 2,048, and saturating them would flatten every
    nearby score to one value.
    """
    values = np.abs(np.concatenate([np.ravel(c) for c in constants]))
    largest = values[np.isfinite(values)].max(initial=0.0)
    fmt = FixedPointFormat()
    while fmt.frac_bits > 0 and largest > fmt.max_value:
        fmt = FixedPointFormat(fmt.total_bits, fmt.frac_bits - 1)
    return fmt


class _ExpTable:
    """Lookup-table exponential: the pipeline's exp unit.

    Covers ``[input_floor, 0]`` with ``2**address_bits`` entries and
    linear interpolation; inputs below the floor return exactly zero
    (the hardware flushes them to zero because the true value is below
    one LSB of the output format).
    """

    def __init__(
        self, input_floor: float = -40.0, address_bits: int = 12
    ) -> None:
        if input_floor >= 0:
            raise ValueError("input_floor must be negative")
        self.input_floor = float(input_floor)
        self.address_bits = int(address_bits)
        self._n_entries = 2**address_bits
        self._grid = np.linspace(self.input_floor, 0.0, self._n_entries)
        self._table = np.exp(self._grid)
        self._step = self._grid[1] - self._grid[0]

    @property
    def n_entries(self) -> int:
        """Number of table entries (sizes one BRAM in the cost model)."""
        return self._n_entries

    def __call__(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        clipped = np.clip(values, self.input_floor, 0.0)
        position = (clipped - self.input_floor) / self._step
        low = np.floor(position).astype(np.int64)
        low = np.clip(low, 0, self._n_entries - 2)
        frac = position - low
        interpolated = (
            self._table[low] * (1.0 - frac) + self._table[low + 1] * frac
        )
        return np.where(values < self.input_floor, 0.0, interpolated)


class QuantizedGmm:
    """Fixed-point re-implementation of :meth:`GaussianMixture.score_samples`.

    Parameters
    ----------
    model:
        The float64 reference mixture (trained by EM in software, as the
        paper does -- training happens offline, only inference runs on
        the FPGA).
    fmt:
        Fixed-point format used for parameters and the accumulator;
        by default 32-bit words with as many of the Q12.20 fraction
        bits as the model's largest finite constant leaves room for.
    exp_table:
        The exp unit; defaults to a 4K-entry table over ``[-40, 0]``.

    Notes
    -----
    Restricted to ``n_features == 2`` -- the datapath hard-codes the
    2x2 symmetric inverse covariance (three multipliers per component),
    exactly as the paper's engine does.
    """

    def __init__(
        self,
        model: GaussianMixture,
        fmt: FixedPointFormat | None = None,
        exp_table: _ExpTable | None = None,
    ) -> None:
        if model.n_features != 2:
            raise ValueError(
                "QuantizedGmm supports 2-D mixtures only,"
                f" got n_features={model.n_features}"
            )
        self.exp_table = exp_table if exp_table is not None else _ExpTable()
        self._n_components = model.n_components
        covariances = model.covariances
        inverses = np.linalg.inv(covariances)
        dets = np.linalg.det(covariances)
        # log(pi_k / (2 pi sqrt(det))) folded into a single additive
        # constant per component, so the exponent needs one add.
        with np.errstate(divide="ignore"):
            log_norm = np.log(model.weights) - np.log(
                2.0 * np.pi * np.sqrt(dets)
            )
        self.fmt = (
            fmt
            if fmt is not None
            else _fitting_format(model.means, inverses, log_norm)
        )
        # Per-component constants, all quantized once at load time (the
        # "one-time loading from HBM before kernel starts" of Fig. 5).
        self._means = self.fmt.quantize(model.means)  # (K, 2)
        self._inv_a = self.fmt.quantize(inverses[:, 0, 0])
        self._inv_b = self.fmt.quantize(inverses[:, 0, 1])
        self._inv_c = self.fmt.quantize(inverses[:, 1, 1])
        self._log_norm = self.fmt.quantize(log_norm)

    @property
    def n_components(self) -> int:
        """Number of Gaussian components in the pipeline."""
        return self._n_components

    @property
    def weight_buffer_bits(self) -> int:
        """Total parameter storage in bits (sizes the weight buffer).

        Six words per component: mean x/y, three inverse-covariance
        entries, and the folded log-normalisation constant.
        """
        return self._n_components * 6 * self.fmt.total_bits

    def multiply_accumulate_ops_per_point(self) -> int:
        """Fixed-point multiply ops needed to score one point.

        Per component: quadratic form ``a dx^2 + 2 b dx dy + c dy^2``
        costs 6 multiplies (dx*dx, dy*dy, dx*dy and the three
        coefficient products), plus one multiply inside the exp-table
        interpolation.  Used by the DSP-count model.
        """
        return self._n_components * 7

    def score_samples_reference(self, points: np.ndarray) -> np.ndarray:
        """Per-component-loop scoring (the executable specification).

        Follows the hardware order of operations: quantize the input,
        evaluate the quadratic form per component, add the folded
        log-constant, exponentiate through the table, and accumulate
        with quantization after every partial sum (the shift-register
        accumulator of Sec. 4.1).  The vectorized
        :meth:`score_samples` must match it bit for bit (asserted by
        the test suite).
        """
        points = self._validate_points(points)
        q = self.fmt.quantize
        x = q(points)
        accumulator = np.zeros(x.shape[0], dtype=np.float64)
        for k in range(self._n_components):
            dx = q(x[:, 0] - self._means[k, 0])
            dy = q(x[:, 1] - self._means[k, 1])
            quad = q(
                q(self._inv_a[k] * dx * dx)
                + q(2.0 * self._inv_b[k] * dx * dy)
                + q(self._inv_c[k] * dy * dy)
            )
            exponent = q(self._log_norm[k] - 0.5 * quad)
            term = q(self.exp_table(exponent))
            accumulator = q(accumulator + term)
        return accumulator

    #: Element budget of one ``(rows, K)`` term block in
    #: :meth:`score_samples` (bounds peak memory to a few MB).
    _BLOCK_ELEMENTS = 1 << 21

    def score_samples(self, points: np.ndarray) -> np.ndarray:
        """Quantized mixture score per point, shape ``(N,)``.

        Bit-identical to :meth:`score_samples_reference`, evaluated
        as whole ``(rows, K)`` arrays: every per-component operation
        is elementwise, so broadcasting across components reproduces
        the scalar loop's values exactly.  The one sequential step --
        the shift-register accumulator quantized after every add --
        collapses to a plain row sum whenever no partial sum
        saturates: all terms lie on the fixed-point grid, sums of
        grid values stay on the grid (and are exact in float64 at
        these magnitudes), so the per-step round is the identity.
        Rows whose running sum would leave the representable range
        are re-run through the reference loop to reproduce the
        saturation behaviour exactly.
        """
        points = self._validate_points(points)
        # The exactness argument needs every partial sum, measured in
        # LSBs, to stay inside float64's 2**53 integer range; K terms
        # of at most max_value each bound it by K * 2**(total_bits-1).
        if self._n_components * 2 ** (self.fmt.total_bits - 1) >= 2**53:
            return self.score_samples_reference(points)
        n = points.shape[0]
        out = np.empty(n, dtype=np.float64)
        rows_per_block = max(
            1, self._BLOCK_ELEMENTS // max(1, self._n_components)
        )
        q = self.fmt.quantize
        for lo in range(0, n, rows_per_block):
            block = points[lo : lo + rows_per_block]
            x = q(block)
            dx = q(x[:, 0:1] - self._means[None, :, 0])  # (m, K)
            dy = q(x[:, 1:2] - self._means[None, :, 1])
            quad = q(
                q(self._inv_a[None, :] * dx * dx)
                + q(2.0 * self._inv_b[None, :] * dx * dy)
                + q(self._inv_c[None, :] * dy * dy)
            )
            exponent = q(self._log_norm[None, :] - 0.5 * quad)
            terms = q(self.exp_table(exponent))
            partial = np.cumsum(terms, axis=1)
            in_range = (
                (partial <= self.fmt.max_value)
                & (partial >= self.fmt.min_value)
            ).all(axis=1)
            result = partial[:, -1]
            if not in_range.all():
                saturated = np.nonzero(~in_range)[0]
                result[saturated] = self.score_samples_reference(
                    block[saturated]
                )
            out[lo : lo + block.shape[0]] = result
        return out

    @staticmethod
    def _validate_points(points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        if points.ndim == 1:
            points = points[None, :]
        if points.shape[1] != 2:
            raise ValueError(
                f"points must have shape (N, 2), got {points.shape}"
            )
        return points

    def max_abs_error(
        self, reference: GaussianMixture, points: np.ndarray
    ) -> float:
        """Largest |quantized - float| score difference over ``points``."""
        exact = reference.score_samples(points)
        approx = self.score_samples(points)
        return float(np.max(np.abs(exact - approx)))
