"""Two-component diagonal-covariance Gaussian mixture fitted by EM.

Initialization comes from a k-means fit with the same seed unless explicit
starting parameters are given (the explicit path exists so a single EM step
can be checked against an independent oracle).  The E step runs in log space;
variances are floored at 1e-8 to keep components from collapsing onto
coincident points.  Hard assignments are argmax responsibility.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import FitError
from .kmeans import fit_kmeans
from .model import ClusterModel, _nearest, as_matrix, canonical_labels

__all__ = ["fit_gmm", "gmm_log_responsibilities", "VAR_FLOOR"]

VAR_FLOOR = 1e-8


def gmm_log_responsibilities(weights, means, variances, mat
                             ) -> tuple[np.ndarray, float]:
    """Log responsibilities (n, 2) and total log-likelihood of the data."""
    w = np.asarray(weights, dtype=np.float64)
    mu = np.asarray(means, dtype=np.float64)
    var = np.asarray(variances, dtype=np.float64)
    # log N(x | mu_j, diag(var_j)) summed over dimensions
    log_pdf = -0.5 * (np.log(2.0 * math.pi * var)[None, :, :]
                      + (mat[:, None, :] - mu[None, :, :]) ** 2 / var[None, :, :]
                      ).sum(axis=2)
    log_joint = np.log(w)[None, :] + log_pdf
    m = log_joint.max(axis=1, keepdims=True)
    log_norm = m + np.log(np.exp(log_joint - m).sum(axis=1, keepdims=True))
    return log_joint - log_norm, float(log_norm.sum())


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

    history: list[float] = []
    log_resp = None
    for _ in range(max_iter):
        log_resp, loglik = gmm_log_responsibilities(w, mu, var, mat)
        history.append(loglik)
        if len(history) >= 2 and history[-1] - history[-2] < tol:
            break
        resp = np.exp(log_resp)
        nj = resp.sum(axis=0)
        if np.any(nj <= 0.0):
            raise FitError("a mixture component lost all responsibility")
        w = nj / n
        mu = (resp.T @ mat) / nj[:, None]
        var = np.empty_like(mu)
        for j in (0, 1):
            var[j] = np.maximum(
                (resp[:, j][:, None] * (mat - mu[j]) ** 2).sum(axis=0) / nj[j],
                VAR_FLOOR)

    labels = np.argmax(log_resp, axis=1)
    for j in (0, 1):
        if not np.any(labels == j):
            raise FitError(f"component {j} has no hard members at convergence")
    labels, order, mu_stats, sigma_stats = canonical_labels(mat, labels)
    return ClusterModel(algorithm="gmm", mu_k=mu_stats, sigma_k=sigma_stats,
                        weights=w[order], means=mu[order], variances=var[order],
                        train_assignments=labels, loglik_history=history)
