"""Lloyd 2-means with D^2-weighted seeding, fitted as lockstep lanes.

The inner loop (`lloyd`) is shared by the other algorithms: BIRCH reuses it
with per-point weights for its global phase and spectral clustering runs
the seeded 2-means (`_two_means`) on the embedded rows.

Distances to the one or two centroids are taken component-major against
the (d, n) transpose of the data, so each numpy call runs over n elements
rather than once per row over d of them.  The results are bit-identical to
the row-major form they replace:

- each squared distance is the same squares summed in
  ``np.add.reduce``'s pairwise order (``model._lane_sum``);
- ``np.argmin(d2, axis=1)`` over two centroids is ``d2[1] < d2[0]``, which
  keeps ties on centroid 0;
- the SSE needs no second pass: ``((mat - centroids[labels]) ** 2).sum(axis=1)``
  is, element for element, the distance just computed to the assigned
  centroid, ``np.minimum`` of the two, and 0.0 for a point revived as a
  centroid of its own;
- the weighted centroid update is the expression ``np.average`` evaluates,
  ``(m * w[:, None]).sum(axis=0) / w.sum()``; of its checks only the one a
  cluster can fail is kept (weights summing to zero, now a FitError).

The 2-means lane contract.  One Lloyd loop (``_lloyd``) fits B same-shape
data sets ("lanes") at once, in lockstep, and so does the k-means++ seeding
before it (``_two_means``).  A suite fits many small (n, d) matrices, whose
cost is per-call numpy overhead, so the lanes share every numpy call:

- every lane stops on its own: when its labels repeat, when its SSE drops
  by less than ``_TOL`` (after that step's update), when a cluster's
  weights sum to zero (a FitError for that lane alone), or at
  ``max_iter``; the lanes still running are then packed to the front, so
  later steps run on them only;
- a batch holds at most ``model._lane_cap(n, d)`` lanes, the cap the GMM's
  EM uses for the same (2, d, B, n) work array; a lone lane too long for
  it takes its distances and member sums in row blocks of that size
  (``model._row_blocks``), so its temporaries stay bounded too;
- every sum keeps each lane's numpy order, bit for bit: distances through
  ``_lane_sum``; the centroid update, the GMM start's variances, the
  canonical swap and the member statistics through ``model._member_sums``
  (sequential over member rows for d > 1, pairwise over the compacted
  column for d = 1); the SSE as ``np.vecdot(w, dist)``, whose float64 loop
  calls BLAS ``ddot`` once per lane, as ``np.dot`` did;
- the emptied-cluster revival runs per lane, on the lanes that need it;
- k-means++ draws ``integers(n)`` and then the one ``random()`` that
  ``choice(n, p=p)`` takes; lanes that share a seed (and n) share those
  draws, from one Generator.  ``choice`` picks ``searchsorted(cdf, u,
  side="right")`` on ``cdf = p.cumsum(); cdf /= cdf[-1]``; that cdf never
  decreases, so the pick is the count of its entries <= u, one call for
  all lanes.  A squared-distance total of zero or one that overflows
  refuses the lane.

``fit_kmeans`` and ``lloyd`` are one-lane calls; ``gmm`` starts its lanes
and ``spectral`` its one embedding lane from ``_two_means``, and ``bench``
fits k-means entries through ``_fit_kmeans_lanes``.
"""

from __future__ import annotations

import numpy as np

from ..errors import FitError
from .model import (ClusterModel, _canonical_lanes, _compact_pairwise, _lane_cap,
                    _lane_sqdist, _lanes_t, _member_sums, _two_distinct_rows, as_matrix)

__all__ = ["fit_kmeans", "lloyd"]

_TOL = 1e-10    # Lloyd stops once an iteration lowers the SSE by less than this
_MAX_ITER = 100


def _pp_cdf(points_t: np.ndarray, first: np.ndarray) -> tuple[np.ndarray, list]:
    """Each lane's k-means++ cumulative weights for its second centroid.

    ``points_t`` is the (d, B, n) data and ``first`` each lane's first
    centroid row.  :returns: the (B, n) cdf ``choice`` draws from, and per
    lane None or the FitError that refuses its seeding (the cdf row of such
    a lane is meaningless)
    """
    lanes = np.arange(points_t.shape[1])
    with np.errstate(over="ignore"):
        d2 = _lane_sqdist(points_t, points_t[:, lanes, first][None])[0]
        total = d2.sum(axis=1)          # pairwise along each contiguous row
    errors = [None if 0.0 < t < np.inf else FitError(
        "cannot seed k centroids: fewer than k distinct points" if t <= 0.0 else
        "cannot seed k centroids: squared distances overflow float64")
        for t in total.tolist()]
    bad = ~((total > 0.0) & (total < np.inf))
    if bad.any():
        d2[bad], total[bad] = 1.0, 1.0
    cdf = np.cumsum(d2 / total[:, None], axis=1)
    cdf /= cdf[:, -1:].copy()
    return cdf, errors


def lloyd(mat: np.ndarray, centroids: np.ndarray, max_iter: int = _MAX_ITER,
          weights: np.ndarray | None = None
          ) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Iterate 2-means assignment/update from the (2, d) ``centroids``, rows
    weighted by ``weights`` (unweighted by default), until labels
    stabilize, the SSE drops by less than ``_TOL``, or ``max_iter``.

    Returns (centroids, labels, sse_history); the history is recorded after
    every assignment step and is non-increasing.
    """
    w = None if weights is None else np.asarray(weights, dtype=np.float64)[None]
    fit = _lloyd(np.ascontiguousarray(mat.T)[:, None],
                 np.asarray(centroids, dtype=np.float64)[..., None], max_iter, w)[0]
    if isinstance(fit, FitError):
        raise fit
    return fit


def _lloyd(points_t: np.ndarray, centroids: np.ndarray, max_iter: int,
           weights: np.ndarray | None = None) -> list:
    """Lloyd 2-means on B lanes in lockstep, each to its own stop.

    ``points_t`` is the (d, B, n) data, ``centroids`` the (2, d, B) start
    and ``weights`` None or (B, n); none of them is written.
    :returns: per lane, (centroids, labels, sse_history) or the FitError
        that stopped it
    """
    n = points_t.shape[2]
    c = centroids.astype(np.float64)
    w = np.ones(n) if weights is None else weights
    lanes = list(range(points_t.shape[1]))          # lane in each active slot
    histories: list[list[float]] = [[] for _ in lanes]
    out: list = [None] * len(lanes)
    labels = sse = None

    def drop(done: np.ndarray) -> bool:
        """Pack the lanes still running to the front; whether there are any."""
        nonlocal lanes, points_t, c, labels, sse, ones, tol, w
        keep = ~done
        lanes = [j for j, on in zip(lanes, keep) if on]
        points_t, c, labels, sse = points_t[:, keep], c[..., keep], labels[keep], sse[keep]
        ones, tol = ones[keep], tol[keep]
        if weights is not None:
            w = w[keep]
        return bool(lanes)

    for _ in range(max_iter):
        d2 = _lane_sqdist(points_t, c)
        new = d2[1] < d2[0]
        # each point's distance to its centroid, C-ordered as d2 is: ddot on
        # a strided row takes another path and rounds differently
        dist = np.minimum(d2[0], d2[1])
        ones = new.sum(axis=1)
        if ((ones == 0) | (ones == n)).any():
            for s in np.flatnonzero((ones == 0) | (ones == n)):
                _revive(s, points_t, c, d2, new, dist, w if w.ndim == 1 else w[s])
            ones = new.sum(axis=1)
        prev, sse = sse, np.vecdot(w, dist)
        for j, h in zip(lanes, sse.tolist()):
            histories[j].append(h)
        # the SSE gain decides after this step's update
        tol = np.zeros(len(lanes), dtype=bool) if prev is None else prev - sse < _TOL
        same = None if labels is None else (new == labels).all(axis=1)
        labels = new
        if same is not None and same.any():     # labels repeat: stop before the update
            for s in same.nonzero()[0]:
                out[lanes[s]] = (c[:, :, s].copy(), labels[s])
            if not drop(same):
                break
        members = np.empty((2,) + labels.shape, dtype=bool)
        np.logical_not(labels, out=members[0])
        members[1] = labels
        if weights is None:
            total = np.array([n - ones, ones], dtype=np.float64)
            c = _member_sums(points_t, members)
        else:
            total = _compact_pairwise(w, members)
            zero = total == 0.0
            for s in np.flatnonzero(zero.any(axis=0)):
                out[lanes[s]] = FitError(
                    f"the weights of cluster {int(np.argmax(zero[:, s]))} sum to zero")
            tol &= ~zero.any(axis=0)
            total[zero] = 1.0
            c = _member_sums(points_t * w, members)
        c /= total[:, None]
        for s in tol.nonzero()[0]:
            out[lanes[s]] = (c[:, :, s].copy(), labels[s])
        done = tol if weights is None else tol | zero.any(axis=0)
        if done.any() and not drop(done):
            break
    else:
        # the lanes still active hit max_iter after their final update
        for s, j in enumerate(lanes):
            out[j] = (c[:, :, s].copy(), None if labels is None else labels[s])
    return [fit if isinstance(fit, FitError) else
            (fit[0], None if fit[1] is None else fit[1].astype(np.intp), history)
            for fit, history in zip(out, histories)]


def _revive(s, points_t, c, d2, labels, dist, w) -> None:
    """Revive lane s's emptied cluster with its worst-fitting point, in place."""
    n = labels.shape[1]
    lab = labels[s]
    for j in (0, 1):
        if not np.any(lab == j):
            worst = int(np.argmax(w * d2[:, s][lab.astype(np.intp), np.arange(n)]))
            lab[worst] = j
            c[j, :, s] = points_t[:, s, worst]
            dist[s, worst] = 0.0


def _two_means(points_t: np.ndarray, seeds, max_iter: int = _MAX_ITER) -> list:
    """``lloyd`` from a k-means++ start seeded by each lane's seed.

    ``points_t`` is the (d, B, n) data of B validated lanes, which is not
    written.  :returns: per lane, (centroids, labels, sse_history), not yet
    in canonical order, or the FitError that refuses it: fewer than 2 rows,
    fewer than 2 distinct rows, or a failed seeding
    """
    n = points_t.shape[2]
    if n < 2:
        return [FitError(f"need at least k=2 rows, got {n}") for _ in seeds]
    draws: dict = {}
    picks = []
    for seed in seeds:
        key = object() if seed is None else seed      # no two None seeds share draws
        if key not in draws:
            rng = np.random.default_rng(seed)
            draws[key] = (int(rng.integers(n)), rng.random())
        picks.append(draws[key])
    first, u = (np.array(a) for a in zip(*picks))
    cdf, fits = _pp_cdf(points_t, first)
    second = (cdf <= u[:, None]).sum(axis=1)
    distinct = _two_distinct_rows(points_t)
    go = []
    for s, ok in enumerate(distinct.tolist()):
        if not ok:
            fits[s] = FitError("need at least k=2 distinct rows")
        elif fits[s] is None:
            go.append(s)
    if go:
        pts = points_t if len(go) == len(seeds) else points_t[:, go]
        lanes = np.arange(len(go))
        start = np.array([pts[:, lanes, first[go]], pts[:, lanes, second[go]]])
        for s, fit in zip(go, _lloyd(pts, start, max_iter)):
            fits[s] = fit
    return fits


def _fit_kmeans_lanes(mats, seeds, max_iter: int = _MAX_ITER) -> list[ClusterModel | FitError]:
    """``fit_kmeans(mat, max_iter, seed)`` for each pair, in lockstep lanes.

    ``mats`` are validated (n, d) matrices of one shape and ``seeds`` their
    k-means++ seeds; a lane that fails yields its FitError, without
    traceback, in place of a model.
    """
    n, d = mats[0].shape
    cap = _lane_cap(n, d)
    out: list = []
    for lo in range(0, len(mats), cap):
        points_t = _lanes_t(mats[lo:lo + cap])
        fits = _two_means(points_t, seeds[lo:lo + cap], max_iter)
        for s, fit in enumerate(fits):
            if not isinstance(fit, FitError) and fit[1] is None:     # max_iter < 1
                fits[s] = FitError("fit produced an empty cluster (id 0)")
        ok = [s for s, fit in enumerate(fits) if not isinstance(fit, FitError)]
        if ok:
            swap, mu, sigma = _canonical_lanes(
                points_t if len(ok) == len(fits) else points_t[:, ok],
                np.array([fits[s][1] == 1 for s in ok]))
            for i, s in enumerate(ok):
                centroids, labels, history = fits[s]
                if swap[i]:
                    centroids, labels = centroids[[1, 0]], 1 - labels
                fits[s] = ClusterModel(algorithm="kmeans", mu_k=mu[i], sigma_k=sigma[i],
                                       centroids=centroids, train_assignments=labels,
                                       sse_history=history)
        out += fits
    return out


def fit_kmeans(rows, max_iter: int = _MAX_ITER, seed: int | None = 0) -> ClusterModel:
    """Fit 2-means from a k-means++ start seeded by ``seed`` and return a
    canonical ClusterModel.

    :raises FitError: fewer than 2 distinct rows, or an empty final cluster
    """
    fit = _fit_kmeans_lanes([as_matrix(rows)], [seed], max_iter)[0]
    if isinstance(fit, FitError):
        raise fit
    return fit
