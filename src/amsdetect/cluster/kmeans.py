"""Lloyd 2-means with D^2-weighted seeding.

The inner loop (`lloyd`) is shared by the other algorithms: BIRCH reuses it
with per-point weights for its global phase and spectral clustering runs it
on the embedded rows.

Distances to the one or two centroids are taken component-major by
``model._sqdist`` against the (d, n) transpose of the data, so each numpy
call runs over n elements rather than once per row over d of them.
The results are bit-identical to the row-major form they replace:

- each squared distance is the same squares summed in
  ``np.add.reduce``'s pairwise order (``_lane_sum``);
- ``np.argmin(d2, axis=1)`` over two centroids is ``d2[1] < d2[0]``, which
  keeps ties on centroid 0;
- the SSE needs no second pass: ``((mat - centroids[labels]) ** 2).sum(axis=1)``
  is, element for element, the distance just computed to the assigned
  centroid, ``np.minimum`` of the two, and 0.0 for a point revived as a
  centroid of its own;
- the weighted centroid update is the expression ``np.average`` evaluates,
  ``(m * w[:, None]).sum(axis=0) / w.sum()``; of its checks only the one a
  cluster can fail is kept (weights summing to zero, now a FitError).
"""

from __future__ import annotations

import numpy as np

from ..errors import FitError
from .model import (ClusterModel, _sqdist, _two_distinct_rows, as_matrix,
                    canonical_labels)

__all__ = ["fit_kmeans", "lloyd", "kmeans_pp_init"]

_TOL = 1e-10    # Lloyd stops once an iteration lowers the SSE by less than this
_MAX_ITER = 100


def kmeans_pp_init(mat: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding for two centroids (Arthur & Vassilvitskii, 2007).

    One uniform draw, then one draw weighted by squared distance to it.
    """
    n = mat.shape[0]
    first = int(rng.integers(n))
    d2 = _sqdist(mat[[first]], mat)[0]
    total = d2.sum()
    if total <= 0.0:
        raise FitError("cannot seed k centroids: fewer than k distinct points")
    return mat[[first, int(rng.choice(n, p=d2 / total))]]


def lloyd(mat: np.ndarray, centroids: np.ndarray, max_iter: int = _MAX_ITER,
          weights: np.ndarray | None = None
          ) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Iterate 2-means assignment/update from the (2, d) ``centroids``, rows
    weighted by ``weights`` (unweighted by default), until labels
    stabilize, the SSE drops by less than ``_TOL``, or ``max_iter``.

    Returns (centroids, labels, sse_history); the history is recorded after
    every assignment step and is non-increasing.
    """
    n = mat.shape[0]
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=np.float64)
    centroids = centroids.astype(np.float64).copy()
    points = np.ascontiguousarray(mat.T).T  # rows whose transpose _sqdist reads whole
    labels = None
    history: list[float] = []
    for _ in range(max_iter):
        d2 = _sqdist(centroids, points)
        new_labels = (d2[1] < d2[0]).astype(np.intp)
        dist = np.minimum(d2[0], d2[1])    # each point's distance to its centroid
        # revive any emptied cluster with the worst-fitting point
        for j in (0, 1):
            if not np.any(new_labels == j):
                worst = int(np.argmax(w * d2[new_labels, np.arange(n)]))
                new_labels[worst] = j
                centroids[j] = mat[worst]
                dist[worst] = 0.0
        history.append(float(np.dot(w, dist)))
        if labels is not None and np.array_equal(labels, new_labels):
            labels = new_labels
            break
        labels = new_labels
        for j in (0, 1):
            members = labels == j
            wj = w[members]
            total = wj.sum()
            if total == 0.0:
                raise FitError(f"the weights of cluster {j} sum to zero")
            centroids[j] = (mat[members] * wj[:, None]).sum(axis=0) / total
        if len(history) >= 2 and history[-2] - history[-1] < _TOL:
            break
    return centroids, labels, history


def _two_means(mat: np.ndarray, seed: int | None, max_iter: int = _MAX_ITER
               ) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """``lloyd`` from a k-means++ start seeded by ``seed``, on a validated
    matrix: (centroids, labels, sse_history), not yet in canonical order.

    :raises FitError: fewer than 2 rows, or fewer than 2 distinct rows
    """
    if mat.shape[0] < 2:
        raise FitError(f"need at least k=2 rows, got {mat.shape[0]}")
    if not _two_distinct_rows(mat):
        raise FitError("need at least k=2 distinct rows")
    return lloyd(mat, kmeans_pp_init(mat, np.random.default_rng(seed)), max_iter)


def fit_kmeans(rows, max_iter: int = _MAX_ITER, seed: int | None = 0) -> ClusterModel:
    """Fit 2-means from a k-means++ start seeded by ``seed`` and return a
    canonical ClusterModel.

    :raises FitError: fewer than 2 distinct rows, or an empty final cluster
    """
    mat = as_matrix(rows)
    centroids, labels, history = _two_means(mat, seed, max_iter)
    labels, order, mu, sigma = canonical_labels(mat, labels)
    return ClusterModel(algorithm="kmeans", mu_k=mu, sigma_k=sigma,
                        centroids=centroids[order], train_assignments=labels,
                        sse_history=history)
