"""Spectral 2-way clustering on a Gaussian-kernel similarity graph.

Pipeline: pairwise similarity w_ij = exp(-||xi-xj||^2 / (2 sigma^2)) with a
zero diagonal, symmetric normalized Laplacian L = I - D^-1/2 W D^-1/2, the 2
eigenvectors of the smallest eigenvalues (numpy's symmetric eigensolver), row
normalization, then 2-means in the embedded space.  Out-of-sample points take
the cluster of their nearest training row in the original feature space.

Memory: row blocks of ``_sqdist_blocks`` become affinities in cache and land
in the one (n, n) buffer, which becomes the Laplacian in place, so no (n, n,
d) tensor and no second or transposed (n, n) matrix exist before ``eigh``;
eigh's own copy, workspace and eigenvectors then set the peak.  Every
element still sees the same IEEE operations as the out-of-place form
(multiply and add commute exactly).
Neither the Gram expansion of the distances nor an iterative eigensolver
(Lanczos, power iteration) is used: both change the bits of the embedding,
which model files store.

Once glibc has freed one (n, n) buffer of up to 32 MiB, its dynamic mmap
threshold rises and later ones come from the heap.  Whether the hole one
fit leaves is reused by the next, or split by small allocations first,
depends on everything allocated before, so the process's peak RSS could
differ by one whole (n, n) buffer between runs that differ only in seed or
environment.  Before building a buffer of ``_TRIM_BYTES`` or more, free
heap pages are handed back with ``malloc_trim(0)`` (skipped where libc
has no such call), so the peak is what the fit holds live.
"""

from __future__ import annotations

import ctypes

import numpy as np

from ..errors import ConfigurationError, FitError
from .kmeans import _two_means
from .model import ClusterModel, _sqdist_blocks, as_matrix, canonical_labels

__all__ = ["fit_spectral", "spectral_embedding"]

_TRIM_BYTES = 1 << 22  # (n, n) buffers from n = 725 rows
_TILE = 128             # side of one symmetrization tile
try:
    _malloc_trim = ctypes.CDLL(None).malloc_trim
    _malloc_trim.argtypes, _malloc_trim.restype = [ctypes.c_size_t], ctypes.c_int
except (OSError, TypeError, AttributeError):  # not glibc
    _malloc_trim = None


def _check_sigma(sigma: float) -> None:
    """The kernel width, config key ``spectral_sigma``."""
    if not 0.0 < sigma < np.inf:
        raise ConfigurationError(f"spectral_sigma must be finite and > 0, got {sigma!r}",
                                 config_key="spectral_sigma")


def spectral_embedding(rows, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and the raw (not row-normalized) 2-dim embedding."""
    mat = as_matrix(rows)
    _check_sigma(sigma)
    n = mat.shape[0]
    if n < 3:
        raise FitError("spectral clustering needs at least 3 rows")
    if _malloc_trim is not None and n * n * 8 >= _TRIM_BYTES:
        _malloc_trim(0)
    lap = np.empty((n, n))  # becomes W, then L, in place
    for rows, d2 in _sqdist_blocks(mat, mat.T):
        np.negative(d2, out=d2)
        d2 /= 2.0 * sigma * sigma
        np.exp(d2, out=lap[rows])
    np.fill_diagonal(lap, 0.0)
    deg = lap.sum(axis=1)
    if np.any(deg <= 1e-300):
        raise FitError("similarity graph has an isolated row; increase sigma")
    inv_sqrt = 1.0 / np.sqrt(deg)
    lap *= -inv_sqrt[:, None]
    lap *= inv_sqrt[None, :]
    np.fill_diagonal(lap, 1.0 + lap.diagonal())
    # exact symmetry for eigh, tile by tile: addition commutes, so both tiles get
    # the bits of lap += lap.T; lap *= 0.5, with no transposed (n, n) temporary
    for i in range(0, n, _TILE):
        for j in range(i, n, _TILE):
            ti, tj = slice(i, i + _TILE), slice(j, j + _TILE)
            avg = lap[ti, tj] + lap[tj, ti].T
            avg *= 0.5
            lap[ti, tj], lap[tj, ti] = avg, avg.T
    del d2, avg  # d2 holds the 1 MB work array alive; eigh sets the peak
    eigvals, eigvecs = np.linalg.eigh(lap)
    return eigvals, eigvecs[:, :2]


def fit_spectral(rows, sigma: float, seed: int | None = 0) -> ClusterModel:
    """Embed with kernel width ``sigma``, row-normalize, and 2-means the
    embedding from a k-means++ start seeded by ``seed``.

    :raises FitError: fewer than 3 rows, an isolated similarity row, fewer
        than 2 distinct embedded rows, or an empty final cluster
    """
    mat = as_matrix(rows)
    _, u = spectral_embedding(mat, sigma)
    norms = np.linalg.norm(u, axis=1, keepdims=True)
    embedding = np.divide(u, norms, out=np.zeros_like(u), where=norms > 0.0)
    fit = _two_means(np.ascontiguousarray(embedding.T)[:, None], [seed])[0]
    if isinstance(fit, FitError):
        raise fit
    labels, _, mu, sigma_k = canonical_labels(mat, fit[1])
    return ClusterModel(algorithm="spectral", mu_k=mu, sigma_k=sigma_k,
                        train_rows=mat.copy(), train_assignments=labels,
                        embedding=embedding)
