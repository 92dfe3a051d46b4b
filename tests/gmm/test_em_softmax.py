"""The fused E+M pass's softmax against the plain-``exp`` softmax.

When most of a slab's peak-shifted exponents lie below
``em._EXP_ZERO_BELOW``, ``em._softmax`` runs ``np.exp`` only on the
other lanes and writes 0.0 on the rest; otherwise it exponentiates
the whole slab.  Either way it works in place on the slab it consumes,
and every responsibility, log-normaliser, peak shift and row sum must
keep the bits of the plain ``np.exp(weighted - safe_peak)`` softmax,
which holds only while ``np.exp`` really is exactly 0.0 below the cut
on this host.  The same holds when the slab holds only the live
components (weight not 0; a dead one's lane is -inf).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gmm import em, linalg

#: Boundary lanes: the cut and the fast-lane edge from both sides,
#: the last subnormal exponent, the subnormal edge, and specials.
_SPECIAL = np.array(
    [
        -np.inf, np.nan, np.inf, 0.0, -700.0, -750.0, -745.13, -708.4,
        np.nextafter(-700.0, -np.inf), np.nextafter(-700.0, np.inf),
        np.nextafter(-750.0, -np.inf), np.nextafter(-750.0, np.inf),
    ]
)


def _plain_softmax(weighted):
    """The softmax before lane gating, verbatim, plus its peak shift
    and row sums (the oracle)."""
    peak = weighted.max(axis=1)
    safe_peak = np.where(np.isfinite(peak), peak, 0.0)
    shifted = np.exp(weighted - safe_peak[:, None])
    totals = shifted.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        responsibilities = shifted / totals[:, None]
        log_norm = np.log(totals) + safe_peak
    log_norm = np.where(np.isfinite(peak), log_norm, -np.inf)
    return responsibilities, log_norm, safe_peak, totals


def _every_lane_softmax(slab):
    """``em._softmax`` on a ``(rows, K)`` slab as the pass hands it a
    block with every component live."""
    got = em._softmax(slab, None)
    assert np.shares_memory(got[0], slab)
    return got


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(
        a.view(np.uint64), b.view(np.uint64)
    )


@st.composite
def _slabs(draw):
    """``(rows, K)`` slabs mixing uniform lanes with boundary and
    special lanes, and rows that are all ``-inf``, peak at exactly 0
    (so exponents land on the boundaries), or peak at +inf or NaN.
    A drawn share of lanes sinks far below any peak, so both the
    gathering and the whole-slab branch run."""
    k = draw(st.sampled_from((1, 2, 8, 64)))
    rows = draw(st.integers(1, 40))
    special = draw(st.floats(0.0, 1.0))
    deep = draw(st.sampled_from((0.0, 0.3, 0.6, 0.9)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (rows, k)
    slab = rng.uniform(-800.0, 5.0, size=shape)
    sink = rng.random(shape) < deep
    slab[sink] = rng.uniform(-1e4, -800.0, size=int(sink.sum()))
    pick = rng.random(shape) < special
    slab[pick] = rng.choice(_SPECIAL, size=int(pick.sum()))
    kinds = rng.integers(0, 5, size=rows)
    for row in np.flatnonzero(kinds):
        lane = rng.integers(k)
        if kinds[row] == 1:
            slab[row] = -np.inf
        elif kinds[row] == 2:
            lanes = slab[row]
            lanes[~(lanes <= 0.0)] = -np.inf
            lanes[lane] = 0.0
        else:
            slab[row, lane] = np.inf if kinds[row] == 3 else np.nan
    return slab


class TestSoftmax:
    @settings(max_examples=300, deadline=None)
    @given(_slabs())
    def test_bit_identical_to_plain_exp(self, slab):
        expected = _plain_softmax(slab.copy())
        got = _every_lane_softmax(slab.copy())
        for name, a, b in zip(
            ("responsibilities", "log_norm", "safe_peak", "totals"),
            got,
            expected,
        ):
            assert _same_bits(a, b), name

    def test_boundary_lanes_on_a_zero_peak(self):
        """Each boundary lane as its own exponent, next to the peak."""
        finite = _SPECIAL[np.isfinite(_SPECIAL)]
        slab = np.stack([np.zeros_like(finite), finite], axis=1)
        expected = _plain_softmax(slab.copy())
        for a, b in zip(_every_lane_softmax(slab.copy()), expected):
            assert _same_bits(a, b)

    def test_degenerate_rows(self):
        slab = np.array(
            [
                [-np.inf, -np.inf, -np.inf],
                [np.inf, 0.0, np.inf],
                [np.nan, -1.0, 0.0],
                [-np.inf, -np.inf, np.nan],
            ]
        )
        got = _every_lane_softmax(slab.copy())
        responsibilities, log_norm, safe_peak, totals = got
        assert np.isnan(responsibilities[[0, 2, 3]]).all()
        assert np.isneginf(log_norm[[0, 2, 3]]).all()
        assert (safe_peak == 0.0).all()
        assert totals[0] == 0.0 and totals[1] == np.inf
        expected = _plain_softmax(slab.copy())
        for a, b in zip(
            (responsibilities, log_norm, safe_peak, totals), expected
        ):
            assert _same_bits(a, b)


class TestLiveColumns:
    """A slab holding only the live components, in component order
    and column-contiguous, as the pass hands it over when some are
    dead: the plain softmax's bits over all ``K``, with the dead
    lanes at -inf."""

    @settings(max_examples=300, deadline=None)
    @given(_slabs(), st.integers(0, 2**32 - 1))
    def test_bit_identical_to_plain_exp(self, slab, seed):
        k = slab.shape[1]
        rng = np.random.default_rng(seed)
        live = rng.random(k) < rng.random()
        live[rng.integers(k)] = True
        slab[:, ~live] = -np.inf
        responsibilities, *normalisers = _plain_softmax(slab.copy())
        lanes = np.ascontiguousarray(slab[:, live].T)
        plan = linalg.pairwise_plan(np.flatnonzero(live), k)
        got = em._softmax(lanes.T, plan)
        assert np.shares_memory(got[0], lanes)
        assert _same_bits(got[0], responsibilities[:, live])
        for a, b in zip(got[1:], normalisers):
            assert _same_bits(a, b)


class TestExpUnderflowOnHost:
    """The lane gating is exact only because ``np.exp`` returns +0.0
    at and below the cut; check it on the scalar tails and the SIMD
    bodies of numpy's loop."""

    @pytest.mark.parametrize("length", [1, 3, 8, 17, 64, 131_072])
    def test_exp_is_exactly_zero_below_the_cut(self, length):
        below = np.array(
            [
                em._EXP_ZERO_BELOW,
                np.nextafter(em._EXP_ZERO_BELOW, -np.inf),
                -760.0, -800.0, -1e4, -1e300,
                -np.finfo(np.float64).max, -np.inf,
            ]
        )
        lanes = np.resize(below, length)
        for values in (lanes, np.resize(below, 2 * length)[::2]):
            out = np.exp(values)
            assert (out == 0.0).all()
            assert not np.signbit(out).any()

    def test_exp_is_positive_just_above_the_subnormal_edge(self):
        """The cut sits below the last nonzero result, not on it."""
        assert np.exp(np.array([-745.13]))[0] > 0.0
        assert em._EXP_ZERO_BELOW < -745.14
