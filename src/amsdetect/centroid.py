"""Centroid selection: statistics-driven refinement of a 2-cluster split.

Given a normalized 1-D feature and the per-cluster stats (mu_k, sigma_k) of a
base clustering, the selector walks i = 1..4 sigma steps inward from each
cluster mean and outward from the global mean, takes the step count where the
two walks land closest (first minimum wins), and averages the feature values
inside the resulting interval next to the global mean.  The averaged values
become new low/high centroids, and a nearest-centroid model over that pair
replaces the base clustering's assignment rule.

Geometry degenerates on real data (the interval can be empty or inverted, or
a cluster mean can sit on the wrong side of the global mean); every such side
falls back to the base cluster mean and is flagged on the returned pair.

The sigma used for the interval bounds is the global feature sigma by
default; ``sigma_scope="cluster"`` switches to the per-cluster sigma for
sensitivity runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cluster import ClusterModel, as_matrix, cluster_stats
from .errors import (ConfigurationError, DegenerateDataError, InputError,
                     RefitError)

__all__ = [
    "CentroidPair",
    "select_centroids",
    "select_centroids_multi",
    "refit_with_centroids_nd",
    "refine_model",
]

_STEPS = (1, 2, 3, 4)


@dataclass
class CentroidPair:
    """Refined (low, high) centroids and the sigma steps that produced them."""

    low: float
    high: float
    m_l: int = 1
    m_g: int = 1
    low_fallback: bool = False
    high_fallback: bool = False

    def __post_init__(self):
        if self.m_l not in _STEPS or self.m_g not in _STEPS:
            raise InputError("m_l and m_g must be in {1, 2, 3, 4}")
        if self.low > self.high:
            raise InputError("low centroid must not exceed high centroid")


def _validate_inputs(feature, mu_k, sigma_k):
    x = np.asarray(feature, dtype=np.float64).ravel()
    if x.size == 0 or not np.all(np.isfinite(x)):
        raise InputError("feature must be a non-empty finite 1-D array")
    if np.any(x < -1e-9) or np.any(x > 1.0 + 1e-9):
        raise InputError("feature must be min-max normalized to [0, 1]")
    mk = np.asarray(mu_k, dtype=np.float64).ravel()
    sk = np.asarray(sigma_k, dtype=np.float64).ravel()
    if mk.size != 2 or sk.size != 2:
        raise InputError("mu_k and sigma_k must each have 2 entries")
    if np.any(sk < 0):
        raise InputError("sigma_k must be non-negative")
    if mk[0] > mk[1]:
        raise InputError("mu_k must be in canonical order (mu_k[0] <= mu_k[1])")
    return x, mk, sk


def select_centroids(feature, mu_k, sigma_k,
                     sigma_scope: str = "global") -> CentroidPair:
    """Run the selection walk on one normalized feature.

    :param feature: normalized sample values (1-D)
    :param mu_k: canonical per-cluster means, mu_k[0] <= mu_k[1]
    :param sigma_k: per-cluster population stds
    :param sigma_scope: "global" uses the feature's overall sigma in the
        interval bounds (literal rule); "cluster" uses sigma_k per side
    :raises DegenerateDataError: both cluster means strictly on one side of
        the global mean
    """
    if sigma_scope not in ("global", "cluster"):
        raise ConfigurationError("sigma_scope must be 'global' or 'cluster'",
                                 config_key="sigma_scope")
    x, mk, sk = _validate_inputs(feature, mu_k, sigma_k)
    mu = float(x.mean())
    sigma = float(x.std())

    if mk[1] < mu or mk[0] > mu:
        raise DegenerateDataError(
            f"both cluster means sit on one side of the global mean "
            f"(mu={mu:.6g}, mu_k={mk.tolist()})")

    m_l, m_g = 1, 1
    low, high = float(mk[0]), float(mk[1])
    low_fallback, high_fallback = True, True

    if mk[0] < mu:
        var_l = [abs((mk[0] + i * sk[0]) - (mu - i * sigma)) for i in _STEPS]
        m_l = _STEPS[int(np.argmin(var_l))]  # first minimum wins
        step = sigma if sigma_scope == "global" else sk[0]
        lo_bound = mk[0] + (m_l + 1) * step
        if lo_bound <= mu:
            inside = x[(x >= lo_bound) & (x <= mu)]
            if inside.size:
                low = float(inside.mean())
                low_fallback = False

    if mk[1] > mu:
        var_g = [abs((mk[1] - i * sk[1]) - (mu + i * sigma)) for i in _STEPS]
        m_g = _STEPS[int(np.argmin(var_g))]
        step = sigma if sigma_scope == "global" else sk[1]
        hi_bound = mk[1] - (m_g + 1) * step
        if hi_bound >= mu:
            inside = x[(x >= mu) & (x <= hi_bound)]
            if inside.size:
                high = float(inside.mean())
                high_fallback = False

    return CentroidPair(low, high, m_l, m_g, low_fallback, high_fallback)


def select_centroids_multi(rows, mu_k, sigma_k,
                           sigma_scope: str = "global") -> list[CentroidPair]:
    """Per-dimension selection over a (n, d) dataset.

    Dimensions whose geometry is degenerate fall back to the base cluster
    means (flagged on the pair) instead of aborting the refit.  Canonical
    ordering sorts clusters along dimension 0 only, so any other dimension
    may see the cluster means flipped; each dimension is re-sorted locally
    before selection.
    """
    mat = as_matrix(rows)
    mk = np.asarray(mu_k, dtype=np.float64)
    sk = np.asarray(sigma_k, dtype=np.float64)
    if mk.shape != (2, mat.shape[1]) or sk.shape != (2, mat.shape[1]):
        raise InputError(f"mu_k/sigma_k must be (2, {mat.shape[1]})")
    pairs = []
    for j in range(mat.shape[1]):
        order = np.argsort(mk[:, j], kind="stable")
        try:
            pairs.append(select_centroids(mat[:, j], mk[order, j],
                                          sk[order, j], sigma_scope))
        except DegenerateDataError:
            pairs.append(CentroidPair(float(min(mk[0, j], mk[1, j])),
                                      float(max(mk[0, j], mk[1, j])),
                                      1, 1, True, True))
    return pairs


def _centroid_model(mat: np.ndarray, centroids: np.ndarray,
                    pairs: list[CentroidPair]) -> ClusterModel:
    labels = np.argmin(((mat[:, None, :] - centroids[None, :, :]) ** 2
                        ).sum(axis=2), axis=1)
    # lenient stats: an empty side keeps its centroid with zero spread
    mu = centroids.copy()
    sigma = np.zeros_like(centroids)
    for j in (0, 1):
        members = mat[labels == j]
        if members.shape[0]:
            mu[j] = members.mean(axis=0)
            sigma[j] = members.std(axis=0)
    return ClusterModel(algorithm="centroid", k=2, mu_k=mu, sigma_k=sigma,
                        centroids=centroids, centroid_pairs=list(pairs))


def refit_with_centroids_nd(rows, pairs: list[CentroidPair]) -> ClusterModel:
    """Nearest-centroid model over the per-dimension (low, high) vectors."""
    mat = as_matrix(rows)
    if len(pairs) != mat.shape[1]:
        raise InputError(f"expected {mat.shape[1]} pairs, got {len(pairs)}")
    low = np.array([p.low for p in pairs])
    high = np.array([p.high for p in pairs])
    if np.all(low == high):
        raise RefitError("all centroid pairs coincide; nothing to refit")
    return _centroid_model(mat, np.stack([low, high]), pairs)


def refine_model(model: ClusterModel, rows,
                 sigma_scope: str = "global") -> ClusterModel:
    """Full refinement pass: stats of the base model -> selection -> refit."""
    mat = as_matrix(rows)
    mu_k, sigma_k = cluster_stats(model, mat)
    if model.k != 2:
        raise InputError("centroid selection refines 2-cluster models only")
    pairs = select_centroids_multi(mat, mu_k, sigma_k, sigma_scope)
    refit = refit_with_centroids_nd(mat, pairs)
    refit.feature_names = model.feature_names
    refit.norm = model.norm
    refit.anomalous_cluster = model.anomalous_cluster
    return refit
