"""Tests for the GaussianMixture inference model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gmm import linalg
from repro.gmm import model as model_module
from repro.gmm.model import _EXP_FLOOR, _SCORE_BLOCK_ROWS, GaussianMixture


def _simple_mixture():
    weights = np.array([0.6, 0.4])
    means = np.array([[0.0, 0.0], [5.0, 5.0]])
    covariances = np.array([np.eye(2), 2.0 * np.eye(2)])
    return GaussianMixture(weights, means, covariances)


class TestConstruction:
    def test_valid_mixture(self):
        model = _simple_mixture()
        assert model.n_components == 2
        assert model.n_features == 2

    def test_rejects_unnormalised_weights(self):
        with pytest.raises(ValueError, match="sum to 1"):
            GaussianMixture(
                np.array([0.5, 0.6]),
                np.zeros((2, 2)),
                np.tile(np.eye(2), (2, 1, 1)),
            )

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError, match="non-negative"):
            GaussianMixture(
                np.array([1.5, -0.5]),
                np.zeros((2, 2)),
                np.tile(np.eye(2), (2, 1, 1)),
            )

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="means"):
            GaussianMixture(
                np.array([1.0]),
                np.zeros((2, 2)),
                np.tile(np.eye(2), (2, 1, 1)),
            )

    def test_rejects_bad_covariance_shape(self):
        with pytest.raises(ValueError, match="covariances"):
            GaussianMixture(
                np.array([1.0]), np.zeros((1, 2)), np.eye(2)
            )

    def test_parameters_are_copied(self):
        weights = np.array([1.0])
        model = GaussianMixture(
            weights, np.zeros((1, 2)), np.eye(2)[None]
        )
        weights[0] = 99.0
        assert model.weights[0] == 1.0

    def test_parameter_count(self):
        # K=2, D=2: 1 weight + 4 means + 6 cov entries = 11.
        assert _simple_mixture().parameter_count == 11


class TestScoring:
    def test_density_integrates_to_one_on_grid(self):
        # Riemann sum of the 2-D density over a wide grid ~ 1.
        model = _simple_mixture()
        grid = np.linspace(-10, 15, 400)
        xx, yy = np.meshgrid(grid, grid)
        points = np.column_stack([xx.ravel(), yy.ravel()])
        density = model.score_samples(points)
        cell = (grid[1] - grid[0]) ** 2
        assert np.sum(density) * cell == pytest.approx(1.0, rel=1e-3)

    def test_score_higher_at_mode_than_tail(self):
        model = _simple_mixture()
        at_mode = model.score_samples(np.array([[0.0, 0.0]]))[0]
        in_tail = model.score_samples(np.array([[20.0, 20.0]]))[0]
        assert at_mode > in_tail

    def test_single_component_matches_closed_form(self):
        model = GaussianMixture(
            np.array([1.0]), np.zeros((1, 2)), np.eye(2)[None]
        )
        got = model.score_samples(np.array([[0.0, 0.0]]))[0]
        assert got == pytest.approx(1.0 / (2.0 * np.pi))

    def test_log_score_consistency(self):
        model = _simple_mixture()
        points = np.array([[1.0, 1.0], [4.0, 6.0]])
        np.testing.assert_allclose(
            np.log(model.score_samples(points)),
            model.log_score_samples(points),
            rtol=1e-12,
        )

    def test_accepts_single_point_1d(self):
        model = _simple_mixture()
        assert model.score_samples(np.array([0.0, 0.0])).shape == (1,)

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError, match=r"\(N, 2\)"):
            _simple_mixture().score_samples(np.zeros((3, 5)))

    def test_mixture_is_weighted_sum_of_components(self):
        model = _simple_mixture()
        points = np.array([[2.0, 2.0], [0.0, 5.0]])
        component = np.exp(
            linalg.log_gaussian_density(
                points, model.means, model.covariances
            )
        )
        expected = component @ model.weights
        np.testing.assert_allclose(
            model.score_samples(points), expected, rtol=1e-12
        )


def _solve_log_score(model, points):
    """``log G(x)`` through the exact triangular solve (the oracle)."""
    weighted = linalg.log_gaussian_density(
        points, model.means, model.covariances
    )
    with np.errstate(divide="ignore"):
        weighted = weighted + np.log(model.weights)
    return linalg.logsumexp(weighted, axis=1)


def _random_mixture(rng, k, zero_weight=False):
    """Well-conditioned mixture near the origin (standardised space).

    Covariance eigenvalues lie in [0.05, 2], so the quadratic form's
    cancellation error on standardised points stays near 1e-13.
    """
    weights = rng.dirichlet(np.ones(k))
    if zero_weight and k > 1:
        weights[0] = 0.0
        weights /= weights.sum()
    means = rng.uniform(-2.5, 2.5, size=(k, 2))
    angles = rng.uniform(0.0, np.pi, size=k)
    rotation = np.stack(
        [
            np.stack([np.cos(angles), -np.sin(angles)], axis=1),
            np.stack([np.sin(angles), np.cos(angles)], axis=1),
        ],
        axis=1,
    )
    scales = rng.uniform(0.05, 2.0, size=(k, 2))
    covariances = (rotation * scales[:, None, :]) @ np.swapaxes(
        rotation, 1, 2
    )
    return GaussianMixture(weights, means, covariances)


class _EveryLaneKernel(GaussianMixture):
    """The scoring kernel before dead components were skipped, with
    ``_weighted_block`` and ``log_score_samples`` verbatim (the
    oracle): every component is a lane of a row-major block."""

    def _weighted_block(self, points: np.ndarray) -> np.ndarray:
        """``log pi_k + log N(x_n | mu_k, Sigma_k)`` for one row block.

        The quadratic-form GEMM, row-major so that each output row
        depends only on its input row (a one-row block is padded to
        two: numpy hands a single row to gemv, whose rounding differs
        from gemm's).  The (row, component) pairs that
        :func:`~repro.gmm.linalg.needs_exact_rescore` flags from the
        row's own span are rescored through the exact solve.
        """
        rows = points.shape[0]
        padded = points if rows > 1 else np.repeat(points, 2, axis=0)
        weighted = linalg.quadratic_features(padded) @ self._coef.T
        weighted = weighted[:rows]
        weighted += self._const
        magnitude = np.abs(points)
        # fmax skips NaN, so a NaN row cannot mask another row's span.
        cols = np.nonzero(
            linalg.needs_exact_rescore(
                np.fmax.reduce(magnitude, axis=None),
                self._p_max,
                self._mu_span,
            )
        )[0]
        if cols.size:
            flagged = linalg.needs_exact_rescore(
                magnitude.max(axis=1)[:, None],
                self._p_max[cols],
                self._mu_span[cols],
            )
            hit = np.nonzero(flagged.any(axis=1))[0]
            exact = linalg.exact_log_weighted(
                points[hit],
                self._means[cols],
                self._cholesky[cols],
                self._log_det[cols],
                self._log_weights[cols],
            )
            grid = np.ix_(hit, cols)
            weighted[grid] = np.where(
                flagged[hit], exact, weighted[grid]
            )
        return weighted

    def log_score_samples(self, points: np.ndarray) -> np.ndarray:
        """Log of the mixture density ``log G(x)`` per point (Eq. 3).

        A blocked logsumexp over :meth:`_weighted_block` whose
        peak-shifted exponents are floored at :data:`_EXP_FLOOR`;
        rows with no finite peak (``-inf`` or NaN under every
        component) score ``-inf``.
        """
        points = self._validate_points(points)
        out = np.empty(points.shape[0])
        for lo in range(0, points.shape[0], _SCORE_BLOCK_ROWS):
            hi = lo + _SCORE_BLOCK_ROWS
            weighted = self._weighted_block(points[lo:hi])
            peak = weighted.max(axis=1)
            finite = np.isfinite(peak)
            shift = np.where(finite, peak, 0.0)
            weighted -= shift[:, None]
            np.maximum(weighted, _EXP_FLOOR, out=weighted)
            np.exp(weighted, out=weighted)
            out[lo:hi] = np.where(
                finite, np.log(weighted.sum(axis=1)) + shift, -np.inf
            )
        return out


class TestScoringKernel:
    """Properties of the one quadratic-form scoring kernel."""

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.sampled_from([1, 8, 64]),
        edge=st.sampled_from([-1, 0, 1]),
    )
    def test_slice_invariance(self, seed, k, edge):
        rng = np.random.default_rng(seed)
        model = _random_mixture(rng, k)
        block = model_module._SCORE_BLOCK_ROWS
        n = 2 * block + 5
        points = rng.standard_normal((n, 2)) * rng.uniform(0.5, 3.0)
        full = model.log_score_samples(points)
        cuts = [
            (0, block + edge),
            (block + edge, n),
            (0, 2 * block + edge),
            (1, block + 1 + edge),
        ]
        cuts += [(i, i + 1) for i in rng.integers(0, n, size=4)]
        lo, hi = np.sort(rng.integers(0, n, size=2))
        cuts.append((int(lo), int(hi)))
        for lo, hi in cuts:
            np.testing.assert_array_equal(
                model.log_score_samples(points[lo:hi]), full[lo:hi]
            )

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.sampled_from([1, 8, 64]),
        zero_weight=st.booleans(),
    )
    def test_agrees_with_solve_oracle(self, seed, k, zero_weight):
        rng = np.random.default_rng(seed)
        model = _random_mixture(rng, k, zero_weight)
        points = rng.standard_normal((500, 2)) * 2.0
        np.testing.assert_allclose(
            model.log_score_samples(points),
            _solve_log_score(model, points),
            rtol=1e-9,
            atol=1e-9,
        )

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from([1, 8, 64]))
    def test_raw_scale_rows_mixed_with_standardised(self, seed, k):
        # k standardised components plus two raw-scale ones (~1e7)
        # next to the raw rows: there the expansion cancels by ~1 in
        # the Mahalanobis term, so only the per-row guard keeps the
        # scores on the oracle.
        rng = np.random.default_rng(seed)
        base = _random_mixture(rng, k)
        raw_means = rng.normal(1e7, 10.0, size=(2, 2))
        model = GaussianMixture(
            np.concatenate([0.8 * base.weights, [0.1, 0.1]]),
            np.concatenate([base.means, raw_means]),
            np.concatenate(
                [base.covariances, np.tile(0.5 * np.eye(2), (2, 1, 1))]
            ),
        )
        points = rng.standard_normal((300, 2))
        raw = rng.integers(0, 300, size=20)
        points[raw] = raw_means[rng.integers(0, 2, size=20)]
        points[raw] += rng.standard_normal((20, 2))
        got = model.log_score_samples(points)
        for row in range(points.shape[0]):
            np.testing.assert_array_equal(
                model.log_score_samples(points[row]), got[row : row + 1]
            )
        np.testing.assert_allclose(
            got, _solve_log_score(model, points), rtol=0.0, atol=1e-6
        )

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from([1, 8, 64]))
    def test_far_tail_rows_finite(self, seed, k):
        rng = np.random.default_rng(seed)
        model = _random_mixture(rng, k)
        # Every mean lies within 2.5*sqrt(2) of the origin and every
        # sigma is at most sqrt(2): radius 100 is >= 40 sigma away.
        angles = rng.uniform(0.0, 2.0 * np.pi, size=200)
        radius = rng.uniform(100.0, 1e4, size=200)
        points = radius[:, None] * np.stack(
            [np.cos(angles), np.sin(angles)], axis=1
        )
        got = model.log_score_samples(points)
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(
            got, _solve_log_score(model, points), rtol=1e-9
        )


#: Component counts around numpy's pairwise-sum edges: sequential
#: below 8 lanes, eight partials up to 128, a split above.
_ORACLE_KS = (1, 2, 3, 7, 8, 9, 63, 64, 65, 128, 129, 256)

#: Which components keep a weight.
_LIVE_MASKS = ("all", "one dead", "one live", "two live", "random")


def _live_mask(rng, k, pattern):
    live = np.ones(k, dtype=bool)
    if pattern == "one dead":
        live[rng.integers(k)] = k == 1
    elif pattern in ("one live", "two live"):
        live[:] = False
        keep = 1 if pattern == "one live" else min(k, 2)
        live[rng.choice(k, keep, replace=False)] = True
    elif pattern == "random":
        live = rng.random(k) < rng.random()
        live[rng.integers(k)] = True
    return live


@st.composite
def _oracle_mixtures(draw):
    """A mixture with weights exactly 0 where the live mask says so.

    Dead components sit at the origin with the ridge covariance a
    warm fold leaves them (``EM_REG_COVAR`` plus the final
    positive-definite repair), or anywhere; a drawn share of the
    components is raw-scale (means near 1e7)."""
    k = draw(st.sampled_from(_ORACLE_KS))
    pattern = draw(st.sampled_from(_LIVE_MASKS))
    folded = draw(st.booleans())
    raw_share = draw(st.sampled_from((0.0, 0.25, 1.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    live = _live_mask(rng, k, pattern)
    base = _random_mixture(rng, k)
    weights = np.where(live, rng.dirichlet(np.ones(k)), 0.0)
    weights /= weights.sum()
    means = base.means
    covariances = base.covariances
    raw = rng.random(k) < raw_share
    means[raw] = rng.normal(1e7, 1e3, size=(int(raw.sum()), 2))
    covariances[raw] *= rng.uniform(1.0, 1e6)
    if folded:
        means[~live] = 0.0
        covariances[~live] = 2e-6 * np.eye(2)
    return GaussianMixture(weights, means, covariances)


@st.composite
def _oracle_rows(draw):
    """Call sizes at the block edges; standardised rows mixed with
    NaN, +-inf, magnitudes from 1e154 to 2e305, far tails and
    raw-scale rows."""
    n = draw(st.sampled_from((1, 2, 2047, 2048, 2049, 5000)))
    special = draw(st.sampled_from((0.0, 0.05, 0.5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = rng.standard_normal((n, 2)) * rng.uniform(0.5, 3.0)
    kinds = np.where(rng.random(n) < special, rng.integers(1, 6, n), 0)
    for kind, rows in ((k, np.flatnonzero(kinds == k)) for k in range(1, 6)):
        size = (rows.size, 2)
        if kind == 1:
            values = rng.choice([np.nan, np.inf, -np.inf, 0.5], size=size)
        elif kind == 2:
            values = 10.0 ** rng.uniform(154.0, 305.0, size=size)
            values = np.minimum(values, 2e305) * rng.choice([-1, 1], size)
        elif kind == 3:
            values = rng.standard_normal(size) * 10.0 ** rng.uniform(2, 4)
        elif kind == 4:
            values = rng.normal(1e7, 1e4, size=size)
        else:
            values = rng.normal(1e7, 1e4, size=size)
            values[:, 0] = 0.0
        points[rows] = values
    return points


class TestLiveLanes:
    """Scores with zero weights skipped equal the every-lane kernel."""

    @settings(max_examples=120, deadline=None)
    @given(model=_oracle_mixtures(), points=_oracle_rows())
    def test_bit_identical_to_every_lane_kernel(self, model, points):
        oracle = _EveryLaneKernel(
            model.weights, model.means, model.covariances
        )
        with np.errstate(all="ignore"):
            got = model.log_score_samples(points)
            expected = oracle.log_score_samples(points)
        assert np.array_equal(
            got.view(np.uint64), expected.view(np.uint64)
        )

    def test_dead_components_get_no_column(self):
        """The oracle above compares the live-lane path, not a
        fallback: only the live components get a column."""
        weights = np.zeros(64)
        weights[[5, 40]] = 0.5
        model = GaussianMixture(
            weights, np.zeros((64, 2)), np.tile(np.eye(2), (64, 1, 1))
        )
        points = np.random.default_rng(3).standard_normal((9, 2))
        weighted, live = model._weighted_block(points, model._live)
        assert weighted.shape == (9, 2) and list(live) == [5, 40]


class TestResponsibilities:
    def test_rows_sum_to_one(self):
        model = _simple_mixture()
        points = np.array([[0.0, 0.0], [5.0, 5.0], [2.5, 2.5]])
        resp = np.exp(model.log_responsibilities(points))
        np.testing.assert_allclose(resp.sum(axis=1), 1.0, rtol=1e-12)

    def test_predict_picks_nearest_component(self):
        model = _simple_mixture()
        labels = model.predict(np.array([[0.0, 0.0], [5.0, 5.0]]))
        assert labels[0] == 0
        assert labels[1] == 1

    @settings(max_examples=25, deadline=None)
    @given(
        x=st.floats(min_value=-50, max_value=50),
        y=st.floats(min_value=-50, max_value=50),
    )
    def test_property_responsibilities_normalised(self, x, y):
        model = _simple_mixture()
        resp = np.exp(model.log_responsibilities(np.array([[x, y]])))
        assert resp.sum() == pytest.approx(1.0, rel=1e-9)
        assert np.all(resp >= 0)


class TestSampling:
    def test_sample_shape(self, rng):
        samples = _simple_mixture().sample(100, rng)
        assert samples.shape == (100, 2)

    def test_sample_zero(self, rng):
        assert _simple_mixture().sample(0, rng).shape == (0, 2)

    def test_sample_negative_rejected(self, rng):
        with pytest.raises(ValueError, match=">= 0"):
            _simple_mixture().sample(-1, rng)

    def test_sample_moments_close(self, rng):
        model = _simple_mixture()
        samples = model.sample(50_000, rng)
        expected_mean = model.weights @ model.means
        np.testing.assert_allclose(
            samples.mean(axis=0), expected_mean, atol=0.1
        )

    def test_sample_deterministic_given_seed(self, rng_factory):
        model = _simple_mixture()
        a = model.sample(10, rng_factory(5))
        b = model.sample(10, rng_factory(5))
        np.testing.assert_array_equal(a, b)
