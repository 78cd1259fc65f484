"""BIRCH: a clustering-feature tree plus a global grouping pass.

Every tree node holds clustering features (N, LS, SS) -- point count, linear
sum and per-dimension square sum -- which add component-wise when subclusters
merge.  Points are absorbed into the closest leaf entry whenever the merged
entry's RMS radius stays under the threshold; otherwise they open a new entry,
and nodes that outgrow the branching factor split around their farthest pair
of entries.  The global phase runs weighted 2-means over the leaf-entry
centroids (weights = entry counts), seeded with their farthest pair, so the
whole fit consumes no randomness.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError, FitError
from .kmeans import lloyd
from .model import (ClusterModel, _nearest, _sqdist, _two_distinct_rows,
                    as_matrix, canonical_labels)

__all__ = ["CFEntry", "CFNode", "CFTree", "fit_birch"]


class CFEntry:
    """Clustering feature of one subcluster: (N, LS, SS) and an optional child."""

    __slots__ = ("n", "ls", "ss", "child")

    def __init__(self, n: int, ls: np.ndarray, ss: np.ndarray, child=None):
        self.n = int(n)
        self.ls = np.asarray(ls, dtype=np.float64)
        self.ss = np.asarray(ss, dtype=np.float64)
        self.child = child

    @classmethod
    def from_point(cls, x: np.ndarray) -> "CFEntry":
        return cls(1, x.copy(), x * x)

    @classmethod
    def merged(cls, a: "CFEntry", b: "CFEntry") -> "CFEntry":
        return cls(a.n + b.n, a.ls + b.ls, a.ss + b.ss)

    def add_point(self, x: np.ndarray) -> None:
        self.n += 1
        self.ls = self.ls + x
        self.ss = self.ss + x * x

    def absorb(self, other: "CFEntry") -> None:
        self.n += other.n
        self.ls = self.ls + other.ls
        self.ss = self.ss + other.ss

    @property
    def centroid(self) -> np.ndarray:
        return self.ls / self.n

    @property
    def radius(self) -> float:
        c = self.ls / self.n
        return float(np.sqrt(max(0.0, self.ss.sum() / self.n - float(c @ c))))


class CFNode:
    __slots__ = ("is_leaf", "entries")

    def __init__(self, is_leaf: bool, entries=None):
        self.is_leaf = is_leaf
        self.entries: list[CFEntry] = entries if entries is not None else []


def _farthest_pair(cents: np.ndarray) -> tuple[np.ndarray, int, int]:
    """Pairwise squared distances and the indices of the farthest pair."""
    d2 = _sqdist(cents, cents)
    i, j = np.unravel_index(int(np.argmax(d2)), d2.shape)
    return d2, int(i), int(j)


def _closest(entries: list[CFEntry], x: np.ndarray) -> int:
    cents = np.stack([e.centroid for e in entries])
    return int(np.argmin(((cents - x) ** 2).sum(axis=1)))


class CFTree:
    def __init__(self, branching: int, threshold: float):
        self.branching = branching
        self.threshold = threshold
        self.root = CFNode(is_leaf=True)

    def insert(self, x: np.ndarray) -> None:
        split = self._insert(self.root, x)
        if split is not None:
            self.root = CFNode(is_leaf=False, entries=list(split))

    def _insert(self, node: CFNode, x: np.ndarray):
        if node.is_leaf:
            if node.entries:
                i = _closest(node.entries, x)
                trial = CFEntry.merged(node.entries[i], CFEntry.from_point(x))
                if trial.radius <= self.threshold:
                    node.entries[i].add_point(x)
                    return None
            node.entries.append(CFEntry.from_point(x))
        else:
            i = _closest(node.entries, x)
            entry = node.entries[i]
            split = self._insert(entry.child, x)
            if split is None:
                entry.add_point(x)
            else:
                node.entries[i:i + 1] = list(split)
        if len(node.entries) > self.branching:
            return self._split(node)
        return None

    def _split(self, node: CFNode) -> tuple[CFEntry, CFEntry]:
        d2, i, j = _farthest_pair(np.stack([e.centroid for e in node.entries]))
        group_a, group_b = [], []
        for idx, e in enumerate(node.entries):
            (group_a if d2[idx, i] <= d2[idx, j] else group_b).append(e)
        node_a = CFNode(node.is_leaf, group_a)
        node_b = CFNode(node.is_leaf, group_b)
        return self._summarize(node_a), self._summarize(node_b)

    @staticmethod
    def _summarize(node: CFNode) -> CFEntry:
        total = CFEntry(0, np.zeros_like(node.entries[0].ls),
                        np.zeros_like(node.entries[0].ss), child=node)
        for e in node.entries:
            total.absorb(e)
        return total

    def leaf_entries(self) -> list[CFEntry]:
        out: list[CFEntry] = []

        def walk(node: CFNode):
            if node.is_leaf:
                out.extend(node.entries)
            else:
                for e in node.entries:
                    walk(e.child)

        walk(self.root)
        return out


def fit_birch(rows, branching: int = 16,
              radius_threshold: float = 0.05) -> ClusterModel:
    """Build the CF tree and cluster the leaf subclusters into 2 groups.

    :raises ConfigurationError: non-positive threshold or branching < 2
    :raises FitError: fewer than 2 leaf subclusters (threshold too coarse)
    """
    mat = as_matrix(rows)
    if branching < 2:
        raise ConfigurationError("branching must be >= 2", config_key="branching")
    if not radius_threshold > 0.0:
        raise ConfigurationError("radius_threshold must be > 0",
                                 config_key="radius_threshold")
    if mat.shape[0] < 2:
        raise FitError(f"need at least k=2 rows, got {mat.shape[0]}")

    tree = CFTree(branching, radius_threshold)
    for x in mat:
        tree.insert(x)
    entries = tree.leaf_entries()
    if len(entries) < 2:
        raise FitError(f"only {len(entries)} leaf subclusters for k=2; "
                       "lower radius_threshold")
    cents = np.stack([e.centroid for e in entries])
    counts = np.array([e.n for e in entries], dtype=np.float64)
    if not _two_distinct_rows(cents):
        raise FitError("need at least k=2 distinct subcluster centroids")
    _, i, j = _farthest_pair(cents)
    global_centroids, _, history = lloyd(cents, cents[[i, j]], weights=counts)
    labels, order, mu, sigma = canonical_labels(mat, _nearest(mat, global_centroids))
    return ClusterModel(algorithm="birch", mu_k=mu, sigma_k=sigma,
                        centroids=global_centroids[order], train_assignments=labels,
                        sse_history=history)
