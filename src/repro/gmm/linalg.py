"""Dense linear-algebra kernels for small-dimension Gaussian mixtures.

The paper's GMM is two-dimensional (Eq. 2: ``x = [P, T]``), so every
covariance is a tiny symmetric positive-definite matrix.  These helpers
operate on *batches* of such matrices, shaped ``(K, D, D)`` for ``K``
mixture components, and avoid any dependency beyond numpy.
"""

from __future__ import annotations

import numpy as np

#: Smallest diagonal jitter used when repairing a non-PD covariance.
_MIN_JITTER = 1e-12

#: Element budget for the batched-solve temporaries (block * K * D);
#: ~4M float64 elements keeps each temporary around 32 MB.
_SOLVE_TEMP_ELEMENTS = 1 << 22

#: Largest worst-case cancellation error (``eps * |largest term|``)
#: of the quadratic-form Mahalanobis term accepted before a (point,
#: component) pair is rescored through the exact solve.  The bound is
#: very conservative, so the tolerance sits well above the noise of
#: healthy standardised fits while still catching the catastrophic
#: raw-scale case (errors of order one and beyond); a 1e-4 error moves
#: a log-density by at most 5e-5, far below any tolerance in use.
MAHA_GUARD_TOL = 1e-4


class NotPositiveDefiniteError(ValueError):
    """Raised when a covariance matrix cannot be Cholesky-factorised."""


def cholesky_batch(covariances: np.ndarray) -> np.ndarray:
    """Cholesky-factorise a batch of SPD matrices.

    Parameters
    ----------
    covariances:
        Array of shape ``(K, D, D)``; each slice must be symmetric
        positive-definite.

    Returns
    -------
    numpy.ndarray
        Lower-triangular factors ``L`` with ``L @ L.T == covariance``,
        shape ``(K, D, D)``.

    Raises
    ------
    NotPositiveDefiniteError
        If any matrix in the batch is not positive-definite.
    """
    covariances = np.asarray(covariances, dtype=np.float64)
    if covariances.ndim != 3 or covariances.shape[1] != covariances.shape[2]:
        raise ValueError(
            f"expected shape (K, D, D), got {covariances.shape!r}"
        )
    try:
        return np.linalg.cholesky(covariances)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(
            "covariance batch contains a non positive-definite matrix"
        ) from exc


def regularize_covariances(
    covariances: np.ndarray, reg_covar: float
) -> np.ndarray:
    """Add ``reg_covar`` to every diagonal, returning a new array.

    EM shrinks covariances towards singularity when a component captures
    very few points; the standard fix (also used by the reference EM
    literature the paper cites) is a small diagonal ridge.
    """
    if reg_covar < 0:
        raise ValueError(f"reg_covar must be non-negative, got {reg_covar}")
    covariances = np.array(covariances, dtype=np.float64, copy=True)
    k, d, _ = covariances.shape
    idx = np.arange(d)
    covariances[:, idx, idx] += reg_covar
    return covariances


def ensure_positive_definite(
    covariances: np.ndarray, reg_covar: float = 1e-6, max_tries: int = 8
) -> np.ndarray:
    """Return a PD-repaired copy of a covariance batch.

    Repeatedly increases the diagonal jitter (starting from
    ``max(reg_covar, _MIN_JITTER)``, multiplying by 10) until the whole
    batch factorises.  Gives up after ``max_tries`` escalations.
    """
    jitter = max(reg_covar, _MIN_JITTER)
    repaired = np.array(covariances, dtype=np.float64, copy=True)
    # Symmetrise first: EM updates can drift off-symmetric by rounding.
    repaired = 0.5 * (repaired + np.swapaxes(repaired, 1, 2))
    for _ in range(max_tries):
        try:
            cholesky_batch(regularize_covariances(repaired, jitter))
        except NotPositiveDefiniteError:
            jitter *= 10.0
        else:
            return regularize_covariances(repaired, jitter)
    raise NotPositiveDefiniteError(
        f"could not repair covariance batch after {max_tries} attempts"
    )


def log_det_from_cholesky(cholesky_factors: np.ndarray) -> np.ndarray:
    """Log-determinants of SPD matrices from their Cholesky factors.

    ``log det(Sigma) = 2 * sum(log(diag(L)))`` for ``Sigma = L L^T``.
    Returns shape ``(K,)``.
    """
    k, d, _ = cholesky_factors.shape
    diag = cholesky_factors[:, np.arange(d), np.arange(d)]
    return 2.0 * np.sum(np.log(diag), axis=1)


def mahalanobis_squared_batch(
    points: np.ndarray, means: np.ndarray, cholesky_factors: np.ndarray
) -> np.ndarray:
    """Squared Mahalanobis distance of each point to each component.

    Parameters
    ----------
    points:
        Shape ``(N, D)``.
    means:
        Shape ``(K, D)``.
    cholesky_factors:
        Shape ``(K, D, D)`` lower factors of the covariances.

    Returns
    -------
    numpy.ndarray
        Shape ``(N, K)``; entry ``(n, k)`` is
        ``(x_n - mu_k)^T Sigma_k^{-1} (x_n - mu_k)``.

    Notes
    -----
    Scoring and EM evaluate densities through the quadratic form
    (:func:`quadratic_coefficients`); this exact solve is the
    fallback for the pairs :func:`needs_exact_rescore` flags and the
    oracle the kernel is tested against.
    """
    points = np.asarray(points, dtype=np.float64)
    n, d = points.shape
    k = means.shape[0]
    # Batched forward substitution: solve L_k z = (x_n - mu_k) for
    # every (point, component) pair at once.  The D-step loop runs
    # over the *tiny* feature dimension (2 for the paper's [P, T]
    # features) while each step is a vectorized (block, K) operation
    # -- replacing the former per-component ``np.linalg.solve`` loop,
    # which also ignored the factors' triangularity.  Points are
    # processed in blocks so the (block, K, D) temporaries stay
    # memory-bounded on arbitrarily long request streams.
    out = np.empty((n, k), dtype=np.float64)
    block = max(1, _SOLVE_TEMP_ELEMENTS // max(k * d, 1))
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        centered = points[lo:hi, None, :] - means[None, :, :]
        z = np.empty_like(centered)  # (block, K, D)
        for i in range(d):
            acc = centered[:, :, i]
            if i:
                acc = acc - np.einsum(
                    "nkj,kj->nk",
                    z[:, :, :i],
                    cholesky_factors[:, i, :i],
                )
            z[:, :, i] = acc / cholesky_factors[:, i, i]
        np.einsum("nkd,nkd->nk", z, z, out=out[lo:hi])
    return out


def exact_log_weighted(
    points: np.ndarray,
    means: np.ndarray,
    factors: np.ndarray,
    log_det: np.ndarray,
    log_weights: np.ndarray | float,
) -> np.ndarray:
    """``log pi_k + log N(x_n | mu_k, Sigma_k)`` by the exact solve.

    Shape ``(N, K)``; the rescore path of the quadratic-form kernels.
    """
    maha = mahalanobis_squared_batch(points, means, factors)
    d = points.shape[1]
    return -0.5 * (d * np.log(2.0 * np.pi) + log_det + maha) + log_weights


def quadratic_features(points: np.ndarray) -> np.ndarray:
    """Quadratic expansion ``F(x) = [x_i x_j (i <= j), x_i]`` per row.

    Shape ``(N, D(D+1)/2 + D)``; pairs with
    :func:`quadratic_coefficients` so that the weighted log-density of
    every component is one GEMM, ``F(x) @ coef.T + const``.
    """
    n, d = points.shape
    pairs = [(i, j) for i in range(d) for j in range(i, d)]
    features = np.empty((n, len(pairs) + d), dtype=np.float64)
    for column, (i, j) in enumerate(pairs):
        np.multiply(points[:, i], points[:, j], out=features[:, column])
    features[:, len(pairs) :] = points
    return features


def quadratic_coefficients(
    log_weights: np.ndarray,
    means: np.ndarray,
    log_det: np.ndarray,
    covariances: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Turn a mixture into its quadratic form plus guard data.

    Returns ``(coef, const, p_max, mu_span)`` with
    ``log pi_k + log N(x | mu_k, Sigma_k) = F(x) @ coef_k + const_k``
    for :func:`quadratic_features` ``F``, built from the precision
    ``P_k = Sigma_k^{-1}``.  ``p_max`` (largest ``|P_k|`` entry) and
    ``mu_span`` (largest ``|mu_k|`` entry) feed
    :func:`needs_exact_rescore`.
    """
    m, d = means.shape
    precision = np.linalg.inv(covariances)
    pm = np.einsum("kij,kj->ki", precision, means)
    pairs = [(i, j) for i in range(d) for j in range(i, d)]
    coef = np.empty((m, len(pairs) + d), dtype=np.float64)
    for column, (i, j) in enumerate(pairs):
        scale = -0.5 if i == j else -1.0
        coef[:, column] = scale * precision[:, i, j]
    coef[:, len(pairs) :] = pm
    mu_pm = np.einsum("ki,ki->k", means, pm)
    const = (
        -0.5 * (d * np.log(2.0 * np.pi) + log_det + mu_pm) + log_weights
    )
    p_max = np.abs(precision).reshape(m, -1).max(axis=1)
    mu_span = np.abs(means).max(axis=1) if d else np.zeros(m)
    return coef, const, p_max, mu_span


def needs_exact_rescore(
    span: float | np.ndarray, p_max: np.ndarray, mu_span: np.ndarray
) -> np.ndarray:
    """Components whose expansion may cancel at point span ``span``.

    ``span`` is the largest ``|x|`` entry (a scalar, or a ``(rows,
    1)`` column for per-row decisions); flags
    ``eps * p_max * (span + mu_span)^2 > MAHA_GUARD_TOL``, which is
    monotone in ``span``.
    """
    term_scale = p_max * (span + mu_span) ** 2
    return np.finfo(np.float64).eps * term_scale > MAHA_GUARD_TOL


def log_gaussian_density(
    points: np.ndarray, means: np.ndarray, covariances: np.ndarray
) -> np.ndarray:
    """Per-component log N(x | mu_k, Sigma_k) for a batch of points.

    Implements the log of Eq. 1 of the paper for every (point, component)
    pair.  Returns shape ``(N, K)``.
    """
    points = np.asarray(points, dtype=np.float64)
    factors = cholesky_batch(covariances)
    log_det = log_det_from_cholesky(factors)
    return exact_log_weighted(points, means, factors, log_det, 0.0)


def logsumexp(values: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable ``log(sum(exp(values)))`` along ``axis``.

    Handles rows that are entirely ``-inf`` (probability zero under
    every component) by returning ``-inf`` for them instead of NaN.
    """
    values = np.asarray(values, dtype=np.float64)
    peak = np.max(values, axis=axis, keepdims=True)
    # Rows of all -inf would produce (-inf) - (-inf) = nan below.
    safe_peak = np.where(np.isfinite(peak), peak, 0.0)
    summed = np.sum(np.exp(values - safe_peak), axis=axis)
    with np.errstate(divide="ignore"):
        result = np.log(summed) + np.squeeze(safe_peak, axis=axis)
    return np.where(
        np.isfinite(np.squeeze(peak, axis=axis)), result, -np.inf
    )


def pairwise_plan(live: np.ndarray, n_lanes: int) -> tuple:
    """The order ``np.sum`` adds ``n_lanes`` lanes in, over ``live`` only.

    numpy sums a contiguous axis pairwise: fewer than 8 lanes in
    sequence; up to 128 into eight interleaved partials (lane ``j``
    into partial ``j mod 8``, in order), combined as
    ``((p0 + p1) + (p2 + p3)) + ((p4 + p5) + (p6 + p7))``, then the
    ``n mod 8`` leftover lanes in sequence; more lanes split at the
    multiple of 8 below half and add the two sums.  The plan is that
    tree with every lane outside ``live`` (sorted lane indices)
    dropped, each kept lane named by its position in ``live``;
    :func:`pairwise_lane_sum` evaluates it.
    """
    position = {int(lane): i for i, lane in enumerate(live)}

    def chain(lanes) -> tuple:
        return tuple(position[j] for j in lanes if j in position)

    def build(lo: int, n: int) -> tuple:
        if n < 8:
            return ("chain", chain(range(lo, lo + n)))
        if n <= 128:
            body = lo + n - n % 8
            partials = tuple(chain(range(lo + p, body, 8)) for p in range(8))
            return ("partials", partials, chain(range(body, lo + n)))
        half = n // 2
        half -= half % 8
        return ("split", build(lo, half), build(lo + half, n - half))

    return build(0, n_lanes)


def _chain_sum(lanes: np.ndarray, positions, total=None):
    for p in positions:
        if total is None:
            total = lanes[p].copy()
        else:
            total += lanes[p]
    return total


def _add(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return a + b


def _plan_sum(lanes: np.ndarray, plan: tuple):
    if plan[0] == "chain":
        return _chain_sum(lanes, plan[1])
    if plan[0] == "partials":
        p = [_chain_sum(lanes, partial) for partial in plan[1]]
        total = _add(
            _add(_add(p[0], p[1]), _add(p[2], p[3])),
            _add(_add(p[4], p[5]), _add(p[6], p[7])),
        )
        return _chain_sum(lanes, plan[2], total)
    return _add(_plan_sum(lanes, plan[1]), _plan_sum(lanes, plan[2]))


def pairwise_lane_sum(lanes: np.ndarray, plan: tuple) -> np.ndarray:
    """Per-row ``np.sum(..., axis=-1)`` over all lanes, from the live ones.

    ``lanes`` is ``(L, rows)``, row ``i`` the lane at position ``i`` of
    the :func:`pairwise_plan`'s ``live``.  The result is a new array
    with the bits ``np.sum`` gives a row-major ``(rows, n_lanes)``
    array holding these lanes and +0.0 in every other lane, for lanes
    that are non-negative or NaN (``x + 0.0`` is ``x`` for them, so an
    absent lane changes no partial).
    """
    total = _plan_sum(lanes, plan)
    return np.zeros(lanes.shape[1]) if total is None else total
