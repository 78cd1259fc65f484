"""Two-component diagonal-covariance Gaussian mixture fitted by EM.

Initialization comes from a k-means fit with the same seed unless explicit
starting parameters are given (the explicit path exists so a single EM step
can be checked against an independent oracle).  The E step runs in log space;
variances are floored at 1e-8 to keep components from collapsing onto
coincident points.  Hard assignments are argmax responsibility.

Both steps run component-major: the data is held as its (d, n) transpose
and each step fills one (2, d, n) work array, allocated once per fit, so
every numpy call runs over n elements.  The row-major form summed,
maximized and took the argmax over axes of length 2 or d, and numpy calls
its inner loop once per row for such a reduction.  Every rewrite keeps
the summation order of the numpy reduction it replaces, so the fitted
parameters, log-likelihood history and labels are bit-identical:

- the sum over d of the (n, 2, d) log-density terms (``.sum(axis=2)``, a
  pairwise sum of each contiguous row) is ``_lane_sum``, which replays
  numpy's pairwise order across whole lanes;
- the sums over n of the M step (``(n, 2).sum(axis=0)`` and
  ``(n, d).sum(axis=0)``) are sequential in numpy, because its inner loop
  runs along the short row and accumulates row after row; an in-place
  ``np.cumsum`` along n adds in that same order and its last element is the
  sum.  With d = 1 numpy drops the unit axis and sums the (n,) column
  pairwise, so that case stays ``np.add.reduce`` of a contiguous lane;
- max, sum and argmax over the two components are column operations on
  the two rows: ``np.maximum``, one addition (0.0 + a + b is a + b here,
  as both terms are non-negative) and ``lr[1] > lr[0]``, which keeps ties
  on component 0 as argmax does;
- the means keep ``resp.T @ mat`` on an (n, 2) C-ordered ``resp``, so the
  BLAS call and its rounding are unchanged.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import FitError
from .kmeans import fit_kmeans
from .model import ClusterModel, _lane_sum, _nearest, as_matrix, canonical_labels

__all__ = ["fit_gmm", "gmm_log_responsibilities", "VAR_FLOOR"]

VAR_FLOOR = 1e-8


def _log_resp(w, mu, var, points_t, work) -> tuple[np.ndarray, np.ndarray]:
    """E step: log responsibilities (2, n) and per-row log normalizers (n,).

    ``points_t`` is the (d, n) data and ``work`` a (2, d, n) scratch array.
    """
    # log N(x | mu_j, diag(var_j)) summed over dimensions
    np.subtract(points_t, mu[:, :, None], out=work)
    np.square(work, out=work)
    work /= var[:, :, None]
    work += np.log(2.0 * math.pi * var)[:, :, None]
    log_joint = _lane_sum(work.swapaxes(0, 1))
    log_joint *= -0.5
    log_joint += np.log(w)[:, None]
    m = np.maximum(log_joint[0], log_joint[1])
    e = log_joint - m
    np.exp(e, out=e)
    log_norm = e[0] + e[1]
    np.log(log_norm, out=log_norm)
    log_norm += m
    log_joint -= log_norm
    return log_joint, log_norm


def _log_resp_rows(weights, means, variances, mat):
    """``_log_resp`` on (n, d) rows, with a work array of its own."""
    n, d = mat.shape
    w, mu, var = (np.asarray(a, dtype=np.float64) for a in (weights, means, variances))
    return _log_resp(w, mu, var, mat.T, np.empty((2, d, n)))


def gmm_log_responsibilities(weights, means, variances, mat
                             ) -> tuple[np.ndarray, float]:
    """Log responsibilities (n, 2) and total log-likelihood of the data."""
    lr, log_norm = _log_resp_rows(weights, means, variances, mat)
    return lr.T, float(log_norm.sum())


def _hard_labels(weights, means, variances, mat) -> np.ndarray:
    """Component of highest responsibility per row (ties: component 0)."""
    lr, _ = _log_resp_rows(weights, means, variances, mat)
    return (lr[1] > lr[0]).astype(np.intp)


def fit_gmm(rows, max_iter: int = 200, tol: float = 1e-9,
            seed: int | None = 0, init_means=None, init_variances=None,
            init_weights=None) -> ClusterModel:
    """Fit by EM; the recorded log-likelihood history is non-decreasing.

    :raises FitError: degenerate data (fewer than 2 distinct rows via the
        k-means init) or an empty hard cluster at convergence
    """
    mat = as_matrix(rows)
    n, d = mat.shape
    if n < 4:
        raise FitError("need at least 4 rows to fit 2 components")

    if init_means is not None:
        mu = np.asarray(init_means, dtype=np.float64).reshape(2, d).copy()
        var = (np.full((2, d), 1.0) if init_variances is None
               else np.asarray(init_variances, dtype=np.float64).reshape(2, d).copy())
        w = (np.full(2, 0.5) if init_weights is None
             else np.asarray(init_weights, dtype=np.float64).copy())
    else:
        km = fit_kmeans(mat, seed=seed)
        hard = _nearest(mat, km.centroids)
        mu = km.centroids.copy()
        var = np.empty((2, d))
        w = np.empty(2)
        for j in (0, 1):
            members = mat[hard == j]
            var[j] = np.maximum(members.var(axis=0), VAR_FLOOR)
            w[j] = members.shape[0] / n
    var = np.maximum(var, VAR_FLOOR)

    points_t = np.ascontiguousarray(mat.T)
    work = np.empty((2, d, n))
    resp = np.empty((n, 2))
    resp_t = resp.T
    history: list[float] = []
    log_resp = None
    for _ in range(max_iter):
        log_resp, log_norm = _log_resp(w, mu, var, points_t, work)
        history.append(float(log_norm.sum()))
        if len(history) >= 2 and history[-1] - history[-2] < tol:
            break
        np.exp(log_resp, out=resp_t)
        nj = np.cumsum(resp_t, axis=1)[:, -1]
        if np.any(nj <= 0.0):
            raise FitError("a mixture component lost all responsibility")
        w = nj / n
        mu = (resp_t @ mat) / nj[:, None]
        np.subtract(points_t, mu[:, :, None], out=work)
        np.square(work, out=work)
        work *= resp_t[:, None, :]
        if d == 1:
            spread = np.add.reduce(work, axis=2)
        else:
            spread = np.cumsum(work, axis=2, out=work)[:, :, -1]
        var = np.maximum(spread / nj[:, None], VAR_FLOOR)

    labels = (log_resp[1] > log_resp[0]).astype(np.intp)
    for j in (0, 1):
        if not np.any(labels == j):
            raise FitError(f"component {j} has no hard members at convergence")
    labels, order, mu_stats, sigma_stats = canonical_labels(mat, labels)
    return ClusterModel(algorithm="gmm", mu_k=mu_stats, sigma_k=sigma_stats,
                        weights=w[order], means=mu[order], variances=var[order],
                        train_assignments=labels, loglik_history=history)
