"""k-means clustering used to initialise EM.

EM for mixtures is sensitive to initialisation; the standard recipe
(k-means++ seeding followed by a few Lloyd iterations, then moments per
cluster) is what starts the trainer in :mod:`repro.gmm.em`.

:func:`kmeans_fast` runs greedy k-means++ (:func:`kmeans_plus_plus_fast`:
a handful of candidates per step, drawn by D^2 inverse-CDF sampling
and scored by the resulting potential) followed by Lloyd iterations
whose per-cluster means come from ``bincount`` accumulations instead
of one boolean mask per cluster.  Both stages run on a size-capped
subsample of the points -- an *initialisation* for EM needs
well-spread moment estimates, not a converged clustering -- and the
final labelling assigns every point once, reseeding any cluster that
came back empty so EM always starts with ``K`` live components.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Point budget for the seeding/Lloyd subsample and for
#: scoring greedy k-means++ candidates.  Above this the subsample is
#: a uniform draw without replacement (deterministic under the
#: caller's rng).
DEFAULT_SAMPLE_CAP = 8192


@dataclass(frozen=True)
class KMeansResult:
    """Outcome of a k-means run.

    Attributes
    ----------
    centers:
        Cluster centers, shape ``(K, D)``.
    labels:
        Index of the closest center per point, shape ``(N,)``.
    inertia:
        Sum of squared distances of points to their assigned center.
    n_iter:
        Number of Lloyd iterations executed.
    """

    centers: np.ndarray
    labels: np.ndarray
    inertia: float
    n_iter: int


def _squared_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, shape ``(N, K)``."""
    # ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2, computed without the NxKxD
    # intermediate that a broadcast subtraction would allocate, and in
    # place on the one (N, K) product: -2 x.c + ||x||^2 rounds exactly
    # as ||x||^2 - 2 x.c does.
    x_sq = np.sum(points * points, axis=1)[:, None]
    c_sq = np.sum(centers * centers, axis=1)[None, :]
    distances = points @ centers.T
    distances *= -2.0
    distances += x_sq
    distances += c_sq
    np.maximum(distances, 0.0, out=distances)
    return distances


def kmeans_plus_plus_fast(
    points: np.ndarray,
    n_clusters: int,
    rng: np.random.Generator,
    n_candidates: int | None = None,
) -> np.ndarray:
    """Greedy k-means++ seeding, fully vectorized.

    Per step, ``n_candidates`` seeds are drawn by D^2 sampling
    (inverse-CDF over the running closest-distance array -- no
    per-step ``rng.choice(p=...)`` CDF build) and the candidate whose
    adoption leaves the
    smallest total potential wins.  Greedy candidate selection is
    the standard quality upgrade over single-draw k-means++ (it is
    what scikit-learn ships); the default candidate count follows
    the same ``2 + log K`` rule.  :func:`kmeans_fast` bounds the
    O(N * candidates) scoring cost by calling this on a size-capped
    subsample.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if n_clusters < 1:
        raise ValueError(f"n_clusters must be >= 1, got {n_clusters}")
    if n < n_clusters:
        raise ValueError(
            f"need at least n_clusters={n_clusters} points, got {n}"
        )
    if n_candidates is None:
        n_candidates = 2 + int(np.log(n_clusters))
    centers = np.empty((n_clusters, points.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centers[0] = points[first]
    closest_sq = _squared_distances(points, centers[:1])[:, 0]
    for i in range(1, n_clusters):
        total = float(np.sum(closest_sq))
        if total <= 0.0:
            # All points coincide with chosen centers: any index works.
            candidates = np.asarray([int(rng.integers(n))])
        else:
            draws = rng.random(n_candidates) * total
            candidates = np.searchsorted(
                np.cumsum(closest_sq), draws
            )
            np.minimum(candidates, n - 1, out=candidates)
        cand_sq = _squared_distances(
            points, points[candidates]
        )  # (N, L)
        potential = np.minimum(
            closest_sq[:, None], cand_sq
        ).sum(axis=0)
        best = int(np.argmin(potential))
        centers[i] = points[candidates[best]]
        np.minimum(closest_sq, cand_sq[:, best], out=closest_sq)
    return centers


def _lloyd_fast(
    points: np.ndarray,
    centers: np.ndarray,
    max_iter: int,
    tol: float,
) -> tuple[np.ndarray, int]:
    """Lloyd iterations with bincount-accumulated cluster means.

    One ``bincount`` per feature dimension instead of a per-cluster
    boolean mask (O(N * K) mask evaluations per iteration).  Empty
    clusters are re-seeded to the points currently farthest from
    their assigned centers.
    """
    n_clusters, d = centers.shape
    inertia = np.inf
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        distances = _squared_distances(points, centers)
        labels = np.argmin(distances, axis=1)
        assigned = distances[np.arange(labels.shape[0]), labels]
        new_inertia = float(assigned.sum())
        counts = np.bincount(labels, minlength=n_clusters)
        new_centers = np.empty_like(centers)
        for j in range(d):
            new_centers[:, j] = np.bincount(
                labels, weights=points[:, j], minlength=n_clusters
            )
        new_centers /= np.maximum(counts, 1)[:, None]
        empty = np.nonzero(counts == 0)[0]
        if empty.size:
            farthest = np.argsort(-assigned)
            new_centers[empty] = points[farthest[: empty.size]]
        shift = float(np.max(np.abs(new_centers - centers)))
        centers = new_centers
        converged = shift <= tol or abs(inertia - new_inertia) <= tol
        inertia = new_inertia
        if converged:
            break
    return centers, n_iter


def kmeans_fast(
    points: np.ndarray,
    n_clusters: int,
    rng: np.random.Generator,
    max_iter: int = 30,
    tol: float = 1e-6,
    sample_cap: int = DEFAULT_SAMPLE_CAP,
) -> KMeansResult:
    """Vectorized k-means for EM initialisation.

    Greedy k-means++ seeding plus bincount-Lloyd, both on a
    ``sample_cap``-bounded subsample, then one full-data assignment
    pass.  Any cluster left empty by the final assignment is patched
    with the points farthest from their assigned center (one point
    per empty cluster, farthest first), so every cluster has at
    least one member -- the property EM initialisation relies on.
    Deterministic given ``rng``.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if n < n_clusters:
        raise ValueError(
            f"need at least n_clusters={n_clusters} points, got {n}"
        )
    if sample_cap < n_clusters:
        sample_cap = n_clusters
    if n > sample_cap:
        sample = points[
            np.sort(rng.choice(n, size=sample_cap, replace=False))
        ]
    else:
        sample = points
    centers = kmeans_plus_plus_fast(sample, n_clusters, rng)
    centers, n_iter = _lloyd_fast(sample, centers, max_iter, tol)
    distances = _squared_distances(points, centers)
    labels = np.argmin(distances, axis=1)
    assigned = distances[np.arange(n), labels]
    counts = np.bincount(labels, minlength=n_clusters)
    empty = np.nonzero(counts == 0)[0]
    if empty.size:
        # Reassign the farthest points, but only from donor clusters
        # that keep at least one member afterwards -- stealing a
        # singleton cluster's only point would just move the hole.
        farthest = np.argsort(-assigned)
        counts = counts.copy()
        cursor = 0
        for j in empty:
            while counts[labels[farthest[cursor]]] <= 1:
                cursor += 1
            member = farthest[cursor]
            cursor += 1
            counts[labels[member]] -= 1
            counts[j] += 1
            labels[member] = j
            centers[j] = points[member]
            assigned[member] = 0.0
    inertia = float(assigned.sum())
    return KMeansResult(
        centers=centers, labels=labels, inertia=inertia, n_iter=n_iter
    )
