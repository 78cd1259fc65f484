"""Shared 2-cluster model container, assignment, statistics and serialization.

Every model splits the data into two clusters, normal and anomalous.  A
single ClusterModel dataclass holds the state of any of the four fitted
algorithms (plus the nearest-centroid model produced by centroid refinement);
the unused state slots stay None.  Cluster ids are canonical: cluster 0 is the
cluster whose member rows have the lower mean along dimension 0 (ids kept on
ties), which gives every downstream consumer a deterministic labeling.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
import json

import numpy as np

from ..errors import AmsDetectError, FitError, InputError, StatsError, _read_text
from ..features import NormalizationParams

__all__ = [
    "ClusterModel",
    "as_matrix",
    "assign_many",
    "cluster_stats",
    "member_stats",
    "canonical_labels",
    "save_model",
    "load_model",
    "MODEL_FORMAT",
    "MODEL_VERSION",
]

MODEL_FORMAT = "amsdetect-model"
MODEL_VERSION = 1


def as_matrix(rows) -> np.ndarray:
    """Accept a (n, d) array, a 1-D array (one column), or anything numpy
    converts to one, such as a ``Dataset`` (its ``values``)."""
    mat = np.asarray(rows, dtype=np.float64)
    if mat.ndim == 1:
        mat = mat[:, None]
    if mat.ndim != 2 or mat.size == 0:
        raise InputError("expected a non-empty (n, d) dataset")
    if not np.all(np.isfinite(mat)):
        raise InputError("dataset contains non-finite values")
    return mat


@dataclass
class ClusterModel:
    """A fitted 2-cluster model with canonical cluster ordering."""

    algorithm: str                       # kmeans | gmm | birch | spectral | centroid
    mu_k: np.ndarray                     # (2, d) member means, canonical order
    sigma_k: np.ndarray                  # (2, d) member population stds
    centroids: np.ndarray | None = None          # kmeans / birch global / centroid
    weights: np.ndarray | None = None             # gmm mixing weights
    means: np.ndarray | None = None                # gmm component means
    variances: np.ndarray | None = None            # gmm diagonal variances
    train_rows: np.ndarray | None = None           # spectral
    train_assignments: np.ndarray | None = None    # spectral
    embedding: np.ndarray | None = None            # spectral (row-normalized)
    sse_history: list[float] = field(default_factory=list)
    loglik_history: list[float] = field(default_factory=list)
    feature_names: tuple[str, ...] | None = None   # bound by the CLI fit path
    norm: NormalizationParams | None = None
    centroid_pairs: list | None = None             # CentroidPair list (refit models)
    anomalous_cluster: int = 1

    def __post_init__(self):
        self.mu_k = np.asarray(self.mu_k, dtype=np.float64)
        self.sigma_k = np.asarray(self.sigma_k, dtype=np.float64)
        if self.mu_k.ndim != 2 or len(self.mu_k) != 2 \
                or self.mu_k.shape != self.sigma_k.shape:
            raise InputError("mu_k/sigma_k must both be (2, d)")
        # the state each algorithm assigns rows with, by shape
        d, n = self.dim, len(self.train_rows) if np.ndim(self.train_rows) else "n"
        state = {"kmeans": {"centroids": (2, d)}, "birch": {"centroids": (2, d)},
                 "centroid": {"centroids": (2, d)},
                 "gmm": {"weights": (2,), "means": (2, d), "variances": (2, d)},
                 "spectral": {"train_rows": (n, d), "train_assignments": (n,)}}
        if self.algorithm not in state:
            raise InputError(f"unknown algorithm {self.algorithm!r}")
        for key, shape in state[self.algorithm].items():
            if np.shape(getattr(self, key)) != shape:
                raise InputError(f"{self.algorithm} model needs {key} of shape {shape}")
        if (self.algorithm == "spectral"
                and not np.isin(self.train_assignments, (0, 1)).all()):
            raise InputError("train_assignments must hold cluster ids 0 and 1")
        if self.anomalous_cluster not in (0, 1):
            raise InputError(f"anomalous_cluster must be 0 or 1, "
                             f"got {self.anomalous_cluster!r}")

    @property
    def k(self) -> int:
        return 2

    @property
    def dim(self) -> int:
        return int(self.mu_k.shape[1])


def member_stats(mat: np.ndarray, labels: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Per-cluster per-dimension mean and population std of member rows."""
    members = np.array([labels == 0, labels == 1])[:, None]
    counts = members.sum(axis=-1)
    for j in (0, 1):
        if counts[j, 0] == 0:
            raise StatsError(f"cluster {j} has no members")
    mu, var = _lane_stats(mat.T[:, None], members, counts)
    return mu[..., 0], np.sqrt(var[..., 0])


def canonical_labels(mat: np.ndarray, labels: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Relabel a fitted split so cluster 0 has the lower member mean on dim 0.

    The clusters swap only when cluster 1's mean is strictly lower, so ties
    keep their ids.  :returns: (labels, order, mu_k, sigma_k) where
    ``order[new_id] = old_id`` reorders per-cluster fit state (a swap is its
    own inverse) and mu_k/sigma_k are the member stats in the new order
    :raises FitError: a cluster has no members
    """
    for j in (0, 1):
        if not np.any(labels == j):
            raise FitError(f"fit produced an empty cluster (id {j})")
    swap, mu, sigma = _canonical_lanes(mat.T[:, None], (labels == 1)[None])
    if swap[0]:
        return 1 - labels, np.array([1, 0]), mu[0], sigma[0]
    return labels, np.array([0, 1]), mu[0], sigma[0]


def _canonical_lanes(points_t: np.ndarray, ones: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``canonical_labels`` of B lanes whose clusters both have members.

    ``points_t`` is the (d, B, n) data and ``ones`` the (B, n) membership of
    cluster 1; cluster 0 holds the other rows.  :returns: (swap, mu_k,
    sigma_k): per lane, whether canonical order swaps its clusters, and its
    member stats in canonical order, (B, 2, d) each
    """
    members = np.empty((2,) + ones.shape, dtype=bool)
    np.logical_not(ones, out=members[0])
    members[1] = ones
    counts = members.sum(axis=-1)
    mu, var = _lane_stats(points_t, members, counts)
    # with one dimension the column means are the member means
    swap = mu[1, 0] < mu[0, 0] if len(points_t) == 1 else _lane_swaps(points_t, members, counts)
    mu, sigma = (np.where(swap, a[::-1], a).transpose(2, 0, 1).copy()
                 for a in (mu, np.sqrt(var)))
    return swap, mu, sigma


def _lane_swaps(points_t: np.ndarray, members: np.ndarray, counts: np.ndarray
                ) -> np.ndarray:
    """Per lane, whether canonical order swaps a split whose clusters both
    have members: cluster 1's member mean on dim 0 is strictly the lower.
    Arguments as ``_lane_stats``."""
    # mean(axis=0)[0] can differ in the last bit, so the decision sums the column
    means = _compact_pairwise(points_t[0], members) / counts
    return means[1] < means[0]


def _lane_stats(points_t: np.ndarray, members: np.ndarray, counts: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """Each lane's member means and population variances, (2, d, B) each,
    with the bits of ``mat[members].mean(axis=0)`` and ``.var(axis=0)``.

    ``points_t`` is the (d, B, n) data, ``members`` the (2, B, n)
    memberships and ``counts`` their (2, B) sizes.  numpy's var subtracts
    the mean, squares and sums again, then divides by the count, and so
    does this; an empty cluster reads 0.
    """
    div = np.maximum(counts, 1)[:, None]
    mu = _member_sums(points_t, members) / div
    return mu, _member_sums(points_t, members, center=mu) / div


def _member_sums(values: np.ndarray, members: np.ndarray,
                 center: np.ndarray | None = None) -> np.ndarray:
    """Each lane's sum over its member rows, (k, d, B), bit for bit.

    ``values`` is (d, B, n) or (k, d, B, n), lane b's rows being its
    columns along n, and ``members`` the (k, B, n) memberships.  Lane b of
    set j sums as numpy sums ``mat[members[j, b]].sum(axis=0)`` on its
    compacted (m, d) member matrix.  With ``center`` (k, d, B), it sums the
    squared deviations ``(values - center) ** 2`` instead, formed as
    numpy's var forms them.  This is the one member-sum rule of the
    2-means lanes (``kmeans``), the GMM start, ``member_stats`` and
    ``canonical_labels``:

    - d > 1: numpy's inner loop runs along the short row and adds row after
      row into its identity 0.0, so each column is a sequential sum.
      ``np.cumsum`` along n over the values with non-members set to -0.0
      adds in that order (x + -0.0 is x for every x, signed zeros
      included), and adding 0.0 last turns a -0.0 sum into numpy's +0.0.
      It runs over blocks of rows (``_row_blocks``), each block's first
      row adding the sum so far, so no temporary outgrows the lane work
      array however many rows a lone lane has;
    - d = 1: numpy drops the unit axis and sums the (m,) column pairwise,
      which ``_compact_pairwise`` replays.
    """
    def terms(rows: slice) -> np.ndarray:
        block = values[..., rows]
        if center is not None:
            block = block - center[..., None]
            np.square(block, out=block)
        return block

    k, lanes, n = members.shape
    d = values.shape[-3]
    if d == 1:
        return _compact_pairwise(terms(slice(None))[..., 0, :, :], members)[:, None]
    sums = None
    for rows in _row_blocks(n, k * d * lanes):
        block = np.where(members[:, None, :, rows], terms(rows), -0.0)
        if sums is not None:
            block[..., 0] += sums
        sums = block.cumsum(axis=-1, out=block)[..., -1]
    return sums + 0.0


def _compact_pairwise(values: np.ndarray, members: np.ndarray) -> np.ndarray:
    """``np.add.reduce`` of each lane's compacted member values, (k, B).

    ``values`` is (B, n) or (k, B, n) and ``members`` (k, B, n).  numpy
    sums a compacted column of m values pairwise (see ``_lane_sum``), in an
    order set by m: below 8 values one sequential pass from 0.0; up to 128,
    eight accumulators over the first m - m % 8 values, a tree, then a
    sequential tail of m % 8.  Trailing -0.0 padding changes neither (x +
    -0.0 is x), so every lane of m < 128 members is summed as a row of
    8 * (m // 8) + 7 values: its members, in order, then -0.0.  Lanes whose
    rows have one length are reduced together, one C-ordered (lanes, length)
    block per length, and ``np.add.reduce`` over its last axis sums each
    contiguous row in the pairwise order of that length.  A lane of 128 or
    more members, whose order has no such padding, reduces its compacted
    values alone.
    """
    shape, n = members.shape[:-1], members.shape[-1]
    members = members.reshape(-1, n)
    values = values.reshape(-1, n)            # (B, n) values serve each set in turn
    counts = members.sum(axis=1)
    out = np.empty(len(counts))
    alone = counts >= 128
    for lane in alone.nonzero()[0]:
        out[lane] = np.add.reduce(values[lane % len(values)].compress(members[lane]))
    small = (~alone).nonzero()[0]
    if len(small):
        counts = counts[small]
        rows = np.full((len(small), min(n, 127) + 7), -0.0)
        rows[np.arange(rows.shape[1]) < counts[:, None]] = values[small % len(values)].compress(
            members[small].ravel())
        width = counts // 8 * 8 + 7
        for length in set(width.tolist()):
            lanes = (width == length).nonzero()[0]
            out[small[lanes]] = np.add.reduce(rows[lanes, :length], axis=1)
    return out.reshape(shape)


# Elements of the (d, rows, nb) work array of one row block: 1 MB of float64.
_WORK_ELEMS = 1 << 17


def _sqdist_blocks(a: np.ndarray, b_t: np.ndarray):
    """Squared distances from the rows of a to the columns of b_t, by row block.

    Yields ``(rows, d2)``: a slice of a's rows and their (r, nb) squared
    distances, a view of the one (d, r, nb) work array that the next block
    overwrites.  Differences and squares fill it component-major and
    ``_lane_sum`` adds it over d in place, so each numpy call runs over r·nb
    elements rather than once per (row, column) pair over d of them.  Every
    element is the same squares summed in ``np.add.reduce``'s order, so the
    result is bit-identical to the (na, nb, d) broadcast
    ``((a[:, None] - b[None]) ** 2).sum(axis=2)`` it never holds, with a and
    b in either role (x - y is -(y - x) exactly).  The Gram expansion would
    need no work array, but it rounds differently, and the spectral
    embedding it feeds is saved in model files and pinned by goldens.

    2-vCPU x86-64, numpy 2.4, best of 7: the (2,000, 2,000) matrix takes
    89 ms at d = 9 and 26 ms at d = 3 (row-major sum: 215 and 175 ms); the
    nearest of 4,000 rows to two centroids 156 and 56 µs (a (k, d, n) work
    array summed through a strided view: 243 and 65 µs).
    """
    (na, d), nb = a.shape, b_t.shape[1]
    b_t = np.ascontiguousarray(b_t)[:, None, :]
    step = max(1, _WORK_ELEMS // (d * nb))
    work = np.empty((d, min(step, na), nb))
    for s in range(0, na, step):
        rows = slice(s, min(s + step, na))
        w = work[:, :rows.stop - s]
        np.subtract(a[rows].T[:, :, None], b_t, out=w)
        np.square(w, out=w)
        yield rows, _lane_sum(w)


def _sqdist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of a and b, shape (na, nb)."""
    out = np.empty((len(a), len(b)))
    for rows, d2 in _sqdist_blocks(a, b.T):
        out[rows] = d2
    return out


def _lane_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over the first axis in ``np.add.reduce``'s order, bit for bit, in place.

    ``terms`` is (d, ...): d lanes of equal shape, which the sum overwrites;
    it is returned as a view of ``terms[0]``.  It equals ``np.add.reduce``
    of each length-d fibre taken as a contiguous vector, which is how numpy
    sums the last axis of a C-ordered array: numpy's pairwise summation --
    one sequential pass below 8 terms, eight interleaved accumulators
    combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) plus a sequential tail
    from 8 to 128 terms, and above 128 a split at half the length rounded
    down to a multiple of 8, each half summed the same way -- then numpy's
    identity 0.0 added last.  Here every step is one whole-lane numpy
    operation, where ``a.sum(axis=-1)`` on an (n, d) array calls numpy's
    inner loop once per row with only d elements in it.  The 0.0 matters
    only for signed zeros: numpy sums d copies of -0.0 to +0.0.
    """
    out = _pairwise(terms)
    out += 0.0
    return out


def _pairwise(terms: np.ndarray) -> np.ndarray:
    """numpy's pairwise_sum over the first axis of terms, accumulated into terms[0]."""
    d = len(terms)
    if d < 8:
        for t in terms[1:]:
            terms[0] += t
        return terms[0]
    if d > 128:
        half = d // 2 - d // 2 % 8
        out = _pairwise(terms[:half])
        out += _pairwise(terms[half:])
        return out
    acc = terms[:8]
    for i in range(8, d - d % 8, 8):
        acc += terms[i:i + 8]
    acc[0::2] += acc[1::2]                     # r0+r1, r2+r3, r4+r5, r6+r7
    acc[0::4] += acc[2::4]
    acc[0] += acc[4]
    for t in terms[d - d % 8:]:
        acc[0] += t
    return acc[0]


def _nearest(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Row index into centroids of each point's nearest one (ties: lower id).

    Against two centroids the distances are taken as one (2, n) block and
    the argmin becomes one comparison, ``d2[1] < d2[0]``, which keeps ties
    on centroid 0.  Against more (spectral's training rows) the argmin is
    taken per row block of points, so no (na, nb) distance matrix is held.
    """
    if len(centroids) == 2:
        d2 = _sqdist(centroids, points)
        return (d2[1] < d2[0]).astype(np.intp)
    return np.concatenate([np.argmin(d2, axis=1)
                           for _, d2 in _sqdist_blocks(points, centroids.T)])


def _lanes_t(mats) -> np.ndarray:
    """Same-shape (n, d) matrices as one C-ordered (d, B, n) array, lane b
    at ``[:, b]``: the component-major layout the lane kernels run over,
    with n contiguous (stacking the transposes would keep their
    column-major order).  Each matrix is copied once, into place."""
    n, d = mats[0].shape
    out = np.empty((d, len(mats), n))
    for b, mat in enumerate(mats):
        out[:, b] = mat.T
    return out


def _lane_sqdist(points_t: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Squared distances (k, B, n) from each lane's k centroids, (k, d, B),
    to its rows, (d, B, n): per lane, the bits of ``_sqdist``, in a new
    C-ordered array.  The (k, d, B, rows) work array is filled one
    ``_row_blocks`` block at a time."""
    k, (d, lanes, n) = len(centroids), points_t.shape
    out = np.empty((k, lanes, n))
    for rows in _row_blocks(n, k * d * lanes):
        work = np.subtract(points_t[..., rows], centroids[..., None])
        np.square(work, out=work)
        out[..., rows] = _lane_sum(work.swapaxes(0, 1))
    return out


# Bytes of one lockstep batch's (2, d, B, n) work array; see _lane_cap.
_WORK_BYTES = 1 << 18


def _row_blocks(n: int, width: int):
    """Slices of n rows, as many per block as keep a (width, rows) float64
    work array within _WORK_BYTES (at least one).  A batch of lanes within
    ``_lane_cap`` is one block; a lone lane of many rows is split."""
    step = max(1, _WORK_BYTES // (8 * width))
    return [slice(lo, lo + step) for lo in range(0, n, step)]


def _lane_cap(n: int, d: int) -> int:
    """Most lanes of shape (n, d) one lockstep batch holds (2-means and EM).

    The batch's work array is kept within _WORK_BYTES (256 KiB), where the
    per-lane step time bottoms out.  Measured per lane and EM step, against
    lanes per batch (work array size), 2-vCPU x86-64 host with 2 MiB of L2
    per core, numpy 2.4, one BLAS thread, best of 7:

    - n = 80, d = 1: 1 lane 58 µs, 4 lanes 18, 16 lanes 7.7, 64 lanes 4.8
      (80 KiB), 256 lanes 5.2 (320 KiB), 1,024 lanes 5.3 (1.3 MiB); cap 204;
    - n = 80, d = 3: 1 lane 62 µs, 16 lanes 16, 64 lanes 11.6 (240 KiB),
      256 lanes 12.1 (960 KiB); cap 68;
    - n = 400, d = 3: 1 lane 75 µs, 8 lanes 42 (150 KiB), 16 lanes 41
      (300 KiB), 64 lanes 43 (1.2 MiB); cap 13;
    - n = 4,000, d = 1: 1 lane 207 µs, 4 lanes 181 (250 KiB), 8 lanes 206
      (500 KiB), 16 lanes 238 (1 MiB), 64 lanes 312 (4 MiB); cap 4.  Beyond
      a few thousand rows stacking buys little, and past the cap it costs.
    """
    return max(1, _WORK_BYTES // (2 * d * n * 8))


def _two_distinct_rows(points_t: np.ndarray) -> np.ndarray:
    """Per lane, whether its (n, d) matrix has at least two distinct rows.

    ``points_t`` is the (d, B, n) data of B lanes (``_lanes_t``; one
    matrix ``mat`` is the lane ``mat.T[:, None]``).  One pass against each
    lane's first row, O(n*d) with no sort; on finite input it answers as
    ``np.unique(mat, axis=0).shape[0] >= 2`` does (-0.0 == 0.0 in both).
    """
    return (points_t[:, :, 1:] != points_t[:, :, :1]).any(axis=(0, 2))


def assign_many(model: ClusterModel, rows) -> np.ndarray:
    """Assign each row to a cluster id under the model's canonical ordering."""
    mat = as_matrix(rows)
    if mat.shape[1] != model.dim:
        raise InputError(f"model expects {model.dim}-dim rows, got {mat.shape[1]}")
    if model.algorithm in ("kmeans", "birch", "centroid"):
        return _nearest(mat, model.centroids)
    if model.algorithm == "gmm":
        from .gmm import _hard_labels
        return _hard_labels(model.weights, model.means, model.variances, mat)
    return model.train_assignments[_nearest(mat, model.train_rows)]  # spectral


def cluster_stats(model: ClusterModel, rows) -> tuple[np.ndarray, np.ndarray]:
    """(mu_k, sigma_k) of the given rows under the model, canonically ordered.

    Ordering is re-derived from the rows themselves (lower mean along dim 0
    first), so relabeling the model's clusters cannot change the output order.
    """
    mat = as_matrix(rows)
    mu, sigma = member_stats(mat, assign_many(model, mat))
    if mu[1, 0] < mu[0, 0]:
        return mu[[1, 0]], sigma[[1, 0]]
    return mu, sigma


_ARRAYS = ("mu_k", "sigma_k", "centroids", "weights", "means", "variances",
           "train_rows", "train_assignments", "embedding")


def _arr(x):
    return None if x is None else np.asarray(x).tolist()


def save_model(model: ClusterModel, path) -> None:
    """Serialize to versioned JSON text; floats round-trip exactly."""
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "algorithm": model.algorithm,
        "k": 2,
        **{key: _arr(getattr(model, key)) for key in _ARRAYS},
        "sse_history": model.sse_history,
        "loglik_history": model.loglik_history,
        "feature_names": list(model.feature_names) if model.feature_names else None,
        "norm": (None if model.norm is None else
                 {"mins": _arr(model.norm.mins), "maxs": _arr(model.norm.maxs)}),
        "centroid_pairs": (None if model.centroid_pairs is None else
                           [asdict(p) for p in model.centroid_pairs]),
        "anomalous_cluster": model.anomalous_cluster,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _np(x):
    return None if x is None else np.asarray(x, dtype=np.float64)


def _cluster_id(v, key: str) -> int:
    """A cluster id as read from JSON; floats and booleans are refused."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise InputError(f"{key} must hold integer cluster ids, got {v!r}")
    return v


def _list(doc: dict, key: str) -> list | None:
    """A JSON list entry, or None when absent; anything else is refused."""
    v = doc.get(key)
    if v is not None and not isinstance(v, list):
        raise InputError(f"{key} must be a list, got {v!r}")
    return v


def load_model(path) -> ClusterModel:
    """Read a model file written by save_model.

    :raises InputError: not a model file of this version, or an entry that
        is missing, not numeric, or of the wrong shape for the algorithm
    """
    try:
        doc = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: not a model file ({exc})")
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise InputError(f"{path}: not an {MODEL_FORMAT} file")
    if doc.get("version") != MODEL_VERSION:
        raise InputError(f"{path}: unsupported model version {doc.get('version')!r} "
                         f"(this build reads version {MODEL_VERSION})")
    if doc.get("k") != 2:
        raise InputError(f"{path}: k must be 2, got {doc.get('k')!r}")
    try:
        norm = None
        if doc.get("norm") is not None:
            norm = NormalizationParams(doc["norm"]["mins"], doc["norm"]["maxs"])
        pairs = _list(doc, "centroid_pairs")
        if pairs is not None:
            from ..centroid import CentroidPair
            pairs = [CentroidPair(**p) for p in pairs]
        ids = _list(doc, "train_assignments")
        return ClusterModel(
            algorithm=doc["algorithm"],
            mu_k=_np(doc["mu_k"]),
            sigma_k=_np(doc["sigma_k"]),
            **{key: _np(doc.get(key)) for key in _ARRAYS[2:]
               if key != "train_assignments"},
            train_assignments=(None if ids is None else np.array(
                [_cluster_id(v, "train_assignments") for v in ids], dtype=np.int64)),
            sse_history=_list(doc, "sse_history") or [],
            loglik_history=_list(doc, "loglik_history") or [],
            feature_names=tuple(_list(doc, "feature_names") or ()) or None,
            norm=norm,
            centroid_pairs=pairs,
            anomalous_cluster=_cluster_id(doc.get("anomalous_cluster", 1),
                                          "anomalous_cluster"),
        )
    except KeyError as exc:
        raise InputError(f"{path}: missing key {exc}") from None
    except (AmsDetectError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: malformed model file ({exc})") from None
