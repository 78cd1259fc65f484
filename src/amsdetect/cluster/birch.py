"""BIRCH: a clustering-feature tree plus a global grouping pass.

Every tree node holds clustering features (N, LS, SS) -- point count, linear
sum and per-dimension square sum -- which add component-wise when subclusters
merge.  Points are absorbed into the closest leaf entry whenever the merged
entry's RMS radius stays under the threshold; otherwise they open a new entry,
and nodes that outgrow the branching factor split around their farthest pair
of entries.  The global phase runs weighted 2-means over the leaf-entry
centroids (weights = entry counts), seeded with their farthest pair, so the
whole fit consumes no randomness.

A node keeps its entries as array rows, so the closest entry takes a few
numpy calls per node, and each row sees an entry object's operations in the
same order: the fit is bit-identical to a tree of one object per entry.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigurationError, FitError
from .kmeans import lloyd
from .model import (ClusterModel, _nearest, _sqdist, _two_distinct_rows,
                    as_matrix, canonical_labels)

__all__ = ["fit_birch"]


class _Node:
    """CF entries i < m as rows: counts n[i], linear sums ls[i], square
    sums ss[i]; a non-leaf node keeps entry i's subtree in children[i]."""

    __slots__ = ("m", "n", "ls", "ss", "children")

    def __init__(self, cap: int, d: int, leaf: bool):
        self.m = 0
        self.n = np.zeros(cap, dtype=np.int64)
        self.ls = np.empty((cap, d))
        self.ss = np.empty((cap, d))
        self.children = None if leaf else []

    def insert(self, k: int, n, ls, ss, child=None) -> None:
        """A new entry at row k; rows from k on move one down."""
        for arr in (self.n, self.ls, self.ss):
            arr[k + 1:self.m + 1] = arr[k:self.m]
        self.n[k], self.ls[k], self.ss[k] = n, ls, ss
        self.m += 1
        if child is not None:
            self.children.insert(k, child)

    def add_point(self, i: int, x: np.ndarray, xx: np.ndarray) -> None:
        """Absorb point x (with square xx) into entry i."""
        self.n[i] += 1
        self.ls[i] += x
        self.ss[i] += xx

    def centroids(self) -> np.ndarray:
        return self.ls[:self.m] / self.n[:self.m, None]

    def closest(self, x: np.ndarray) -> int:
        """The entry whose centroid is nearest x (ties: the first)."""
        d2 = self.centroids() - x
        return int(np.add.reduce(np.square(d2, out=d2), axis=1).argmin())

    def total(self) -> tuple:
        """The node's own CF (N, LS, SS): its entries summed in row order."""
        ls, ss = np.zeros((2, self.ls.shape[1]))
        for i in range(self.m):
            ls += self.ls[i]
            ss += self.ss[i]
        return int(self.n[:self.m].sum()), ls, ss


def _radius(n, ls: np.ndarray, ss: np.ndarray) -> float:
    """RMS distance to the centroid of a CF with contiguous 1-D sums."""
    c = ls / n
    return math.sqrt(max(0.0, np.add.reduce(ss) / n - float(c @ c)))


def _farthest_pair(cents: np.ndarray) -> tuple[np.ndarray, int, int]:
    """Pairwise squared distances and the indices of the farthest pair."""
    d2 = _sqdist(cents, cents)
    i, j = np.unravel_index(int(np.argmax(d2)), d2.shape)
    return d2, int(i), int(j)


class _Tree:
    def __init__(self, branching: int, threshold: float, n: int, d: int):
        self.branching, self.threshold = branching, threshold
        self.cap = min(branching, n) + 1         # no node holds more than n entries
        self.root = _Node(self.cap, d, leaf=True)

    def insert(self, x: np.ndarray) -> None:
        split = self._insert(self.root, x, x * x)
        if split is not None:
            self.root = _Node(self.cap, len(x), leaf=False)
            for half in split:
                self.root.insert(self.root.m, *half)

    def _insert(self, node: _Node, x: np.ndarray, xx: np.ndarray):
        if node.children is None:
            if node.m:
                i = node.closest(x)
                if _radius(node.n[i] + 1, node.ls[i] + x,
                           node.ss[i] + xx) <= self.threshold:
                    node.add_point(i, x, xx)
                    return None
            node.insert(node.m, 1, x, xx)
        else:
            i = node.closest(x)
            split = self._insert(node.children[i], x, xx)
            if split is None:
                node.add_point(i, x, xx)
            else:                        # entry i becomes the two halves
                node.n[i], node.ls[i], node.ss[i], node.children[i] = split[0]
                node.insert(i + 1, *split[1])
        if node.m > self.branching:
            return self._split(node)
        return None

    def _split(self, node: _Node) -> list[tuple]:
        """The node's entries in two new nodes, grouped by the nearer of its
        farthest pair; each half as (N, LS, SS, node)."""
        d2, i, j = _farthest_pair(node.centroids())
        near_i = d2[:, i] <= d2[:, j]
        halves = []
        for group in (np.flatnonzero(near_i), np.flatnonzero(~near_i)):
            half = _Node(self.cap, node.ls.shape[1], node.children is None)
            for k in group:
                half.insert(half.m, node.n[k], node.ls[k], node.ss[k],
                            None if node.children is None else node.children[k])
            halves.append((*half.total(), half))
        return halves


def _leaf_rows(node: _Node) -> list[tuple]:
    """(n, ls, ss) of the leaf entries under node, a leaf at a time, left to right."""
    if node.children is None:
        return [(node.n[:node.m], node.ls[:node.m], node.ss[:node.m])]
    return [rows for child in node.children for rows in _leaf_rows(child)]


def _leaf_features(mat: np.ndarray, branching: int, threshold: float
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Leaf-order (n, ls, ss) arrays of the CF tree that mat's rows build in turn."""
    tree = _Tree(branching, threshold, *mat.shape)
    for x in mat:
        tree.insert(x)
    return tuple(map(np.concatenate, zip(*_leaf_rows(tree.root))))


def _check_params(branching: int, radius_threshold: float) -> None:
    """The tree's parameters, config keys ``birch_branching`` and ``birch_threshold``."""
    if branching < 2:
        raise ConfigurationError(f"birch_branching must be >= 2, got {branching!r}",
                                 config_key="birch_branching")
    if not 0.0 < radius_threshold < np.inf:
        raise ConfigurationError("birch_threshold must be finite and > 0, "
                                 f"got {radius_threshold!r}", config_key="birch_threshold")


def fit_birch(rows, branching: int = 16,
              radius_threshold: float = 0.05) -> ClusterModel:
    """Build the CF tree and cluster the leaf subclusters into 2 groups.

    :raises ConfigurationError: branching < 2, or a threshold not finite and > 0
    :raises FitError: fewer than 2 leaf subclusters (threshold too coarse)
    """
    mat = as_matrix(rows)
    _check_params(branching, radius_threshold)
    if mat.shape[0] < 2:
        raise FitError(f"need at least k=2 rows, got {mat.shape[0]}")

    n, ls, _ = _leaf_features(mat, branching, radius_threshold)
    if len(n) < 2:
        raise FitError(f"only {len(n)} leaf subclusters for k=2; "
                       "lower birch_threshold")
    cents = ls / n[:, None]
    if not _two_distinct_rows(cents.T[:, None])[0]:
        raise FitError("need at least k=2 distinct subcluster centroids")
    _, i, j = _farthest_pair(cents)
    global_centroids, _, history = lloyd(cents, cents[[i, j]],
                                         weights=n.astype(np.float64))
    labels, order, mu, sigma = canonical_labels(mat, _nearest(mat, global_centroids))
    return ClusterModel(algorithm="birch", mu_k=mu, sigma_k=sigma,
                        centroids=global_centroids[order], train_assignments=labels,
                        sse_history=history)
