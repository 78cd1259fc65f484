"""Two-component diagonal-covariance Gaussian mixture fitted by EM.

Initialization comes from the centroids of a k-means fit with the same
seed, in canonical order, run for a whole batch of lanes at once
(``kmeans._two_means``, under the 2-means lane contract in ``kmeans``'s
docstring); a start that leaves a component without rows refuses its
lane.  The E step runs in log space; variances are floored at 1e-8 to
keep components from collapsing onto coincident points.  Hard
assignments are argmax responsibility.

One EM loop fits B same-shape data sets ("lanes") at once, in lockstep;
``fit_gmm`` is its one-lane call.  A suite fits many small (n, d) matrices,
and per-call numpy overhead, not arithmetic, sets their cost, so stacking
the lanes shares every numpy call among them.  The lockstep contract:

- every lane stops on its own: when its log-likelihood gains less than
  ``_TOL``, or when its own M step loses a component (a FitError for that
  lane alone); the active lanes are then packed to the front of the
  buffers, which are allocated once per batch and sliced to the active
  count, so later steps run on the survivors only;
- a lane that reaches ``max_iter`` takes the final M step, as a lone fit
  does: its parameters are the post-M values while its labels and history
  come from the last E step;
- a batch holds at most ``model._lane_cap(n, d)`` lanes (measured; see
  there), so fits with many rows run one lane at a time; the start, EM and
  member statistics of a batch run on the same lanes.

Both steps run component-major: each lane's data is held as its (d, n)
transpose and each step fills a (2, d, B, n) work array (lanes next to n,
so one lane's step is the lone step with a unit axis added), and every
numpy call runs over whole lanes of n elements.  The row-major form summed,
maximized and took the argmax over axes of length 2 or d, and numpy calls
its inner loop once per row for such a reduction.  Every rewrite keeps,
per lane, the summation order of the numpy reduction it replaces, so the
fitted parameters, log-likelihood history and labels are bit-identical to
fitting each lane alone with the row-major steps:

- the sum over d of the (n, 2, d) log-density terms (``.sum(axis=2)``, a
  pairwise sum of each contiguous row) is ``_lane_sum``, which replays
  numpy's pairwise order across whole lanes;
- the sums over n of the M step (``(n, 2).sum(axis=0)`` and
  ``(n, d).sum(axis=0)``) are sequential in numpy, because its inner loop
  runs along the short row and accumulates row after row; ``np.cumsum``
  along n adds in that same order and its last element is the sum.  With
  d = 1 numpy drops the unit axis and sums the (n,) column pairwise, so
  that case stays ``np.add.reduce`` of a contiguous lane;
- max, sum and argmax over the two components are column operations on
  the two rows: ``np.maximum``, one addition (0.0 + a + b is a + b here,
  as both terms are non-negative) and ``lr[1] > lr[0]``, which keeps ties
  on component 0 as argmax does;
- each lane's log-likelihood is the pairwise ``sum`` of its contiguous
  (n,) row of log normalizers;
- the means keep ``resp.T @ mat`` on each lane's (n, 2) C-ordered ``resp``,
  stacked, so each lane's BLAS call and its rounding are unchanged.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import FitError
from .kmeans import _two_means
from .model import (ClusterModel, _canonical_lanes, _lane_cap, _lane_sqdist, _lane_stats,
                    _lane_sum, _lane_swaps, _lanes_t, as_matrix)

__all__ = ["fit_gmm", "VAR_FLOOR"]

VAR_FLOOR = 1e-8
_TOL = 1e-9       # EM stops once the log-likelihood gains less than this


def _log_resp(w, mu, var, points_t, work) -> tuple[np.ndarray, np.ndarray]:
    """E step: log responsibilities (2, ..., n) and per-row log normalizers (..., n).

    ``points_t`` is the (d, ..., n) data, ``work`` a (2, d, ..., n) scratch
    array, ``w`` (2, ...) and ``mu``, ``var`` (2, d, ...); the optional axis
    before n holds lanes.
    """
    # log N(x | mu_j, diag(var_j)) summed over dimensions
    np.subtract(points_t, mu[..., None], out=work)
    np.square(work, out=work)
    work /= var[..., None]
    work += np.log(2.0 * math.pi * var)[..., None]
    log_joint = _lane_sum(work.swapaxes(0, 1)) * -0.5
    log_joint += np.log(w)[..., None]
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


def _hard_labels(weights, means, variances, mat) -> np.ndarray:
    """Component of highest responsibility per row (ties: component 0)."""
    lr, _ = _log_resp_rows(weights, means, variances, mat)
    return (lr[1] > lr[0]).astype(np.intp)


def _start(points_t: np.ndarray, seeds) -> tuple[list, list[int], tuple]:
    """Starting (weights, means, variances) of B lanes from their k-means
    fits: each lane's canonically ordered centroids and the rows nearest each.

    ``points_t`` is the (d, B, n) data.  :returns: per lane, None or the
        FitError that refuses its start; the lanes that start; and their
        (2, k), (2, d, k) and (2, d, k) parameters, lane last
    """
    fits = _two_means(points_t, seeds)
    lanes = [s for s, fit in enumerate(fits) if not isinstance(fit, FitError)]
    if not lanes:
        return fits, [], ()
    pts = points_t[:, lanes]
    centroids = np.stack([fits[s][0] for s in lanes], axis=-1)
    ones = np.array([fits[s][1] == 1 for s in lanes])
    members = np.array([~ones, ones])
    swap = _lane_swaps(pts, members, members.sum(axis=-1))
    centroids = np.where(swap, centroids[::-1], centroids)
    d2 = _lane_sqdist(pts, centroids)
    hard = d2[1] < d2[0]
    members = np.array([~hard, hard])
    counts = members.sum(axis=-1)
    _, var = _lane_stats(pts, members, counts)
    fits = [fit if isinstance(fit, FitError) else None for fit in fits]
    keep = counts.all(axis=0)
    for i in np.flatnonzero(~keep):
        j = int(np.argmin(counts[:, i]))
        fits[lanes[i]] = FitError(f"component {j} has no rows at the k-means start")
    params = (counts / points_t.shape[2], centroids, np.maximum(var, VAR_FLOOR))
    return fits, [s for s, on in zip(lanes, keep) if on], tuple(a[..., keep] for a in params)


def _lane(s, w, mu, var, log_resp) -> tuple:
    """Slot s's (weights, means, variances, labels) from lane-last state."""
    return w[:, s], mu[:, :, s], var[:, :, s], log_resp[1, s] > log_resp[0, s]


def _em(x, w, mu, var, max_iter) -> list:
    """EM on B lanes in lockstep, each to its own stop.

    ``x`` is the (B, n, d) data; with B > 1 it is scratch the loop packs.
    ``w`` (2, B), ``mu`` and ``var`` (2, d, B) are the starting parameters.
    :returns: per lane, (w, mu, var, history, labels) or the FitError that
        stopped it
    """
    n, d = x.shape[1:]
    points_t = x.transpose(0, 2, 1).copy()
    work = np.empty((2, d, len(x), n))
    resp = np.empty((len(x), n, 2))                  # C-ordered per lane
    lanes = list(range(len(x)))                      # lane in each active slot
    histories: list[list[float]] = [[] for _ in lanes]
    out: list = [None] * len(x)
    prev: list[float] = []

    def views(k):
        """The active slots: data, (d, k, n) data, work, and responsibilities
        as (2, k, n) and (k, 2, n)."""
        return (x[:k], points_t[:k].transpose(1, 0, 2), work[:, :, :k],
                resp[:k].transpose(2, 0, 1), resp[:k].transpose(0, 2, 1))

    def pack(keep, *bufs):
        """Move the kept slots of ``bufs``, in order, to the front."""
        kept = np.flatnonzero(keep)
        for buf in bufs:
            buf[:len(kept)] = buf[kept]
        return [lanes[s] for s in kept]

    xk, pt, wk, rt, rl = views(len(x))
    for _ in range(max_iter):
        log_resp, log_norm = _log_resp(w, mu, var, pt, wk)
        ll = log_norm.sum(axis=-1).tolist()
        for j, h in zip(lanes, ll):
            histories[j].append(h)
        done = [h - p < _TOL for h, p in zip(ll, prev)]
        if True in done:
            for s, stop in enumerate(done):
                if stop:
                    out[lanes[s]] = _lane(s, w, mu, var, log_resp)
            if all(done):
                break
            keep = ~np.array(done)
            lanes = pack(keep, x, points_t)
            w, mu, var = w[:, keep], mu[:, :, keep], var[:, :, keep]
            log_resp = log_resp[:, keep]
            ll = [h for h, on in zip(ll, keep) if on]
            xk, pt, wk, rt, rl = views(len(lanes))
        prev = ll
        np.exp(log_resp, out=rt)
        nj = rt.cumsum(axis=-1)[..., -1]
        if (nj <= 0.0).any():
            keep = ~(nj <= 0.0).any(axis=0)
            for s in np.flatnonzero(~keep):
                out[lanes[s]] = FitError("a mixture component lost all responsibility")
            if not keep.any():
                break
            lanes = pack(keep, x, points_t, resp)
            nj, log_resp = nj[:, keep], log_resp[:, keep]
            prev = [h for h, on in zip(prev, keep) if on]
            xk, pt, wk, rt, rl = views(len(lanes))
        w = nj / n
        mu = (rl @ xk).transpose(1, 2, 0) / nj[:, None]
        np.subtract(pt, mu[..., None], out=wk)
        np.square(wk, out=wk)
        wk *= rt[:, None]
        if d == 1:
            spread = np.add.reduce(wk, axis=-1)
        else:
            spread = wk.cumsum(axis=-1, out=wk)[..., -1]
        var = np.maximum(spread / nj[:, None], VAR_FLOOR)
    else:
        # the lanes still active hit max_iter after their final M step
        for s, j in enumerate(lanes):
            out[j] = _lane(s, w, mu, var, log_resp)
    return [fit if isinstance(fit, FitError) else (*fit[:3], history, fit[3])
            for fit, history in zip(out, histories)]


def _models(points_t: np.ndarray, fits: list) -> list[ClusterModel | FitError]:
    """The canonical model of each lane's EM fit, or its FitError.

    ``points_t`` is the (d, B, n) data of the lanes and ``fits`` what
    ``_em`` returned for them.
    """
    n = points_t.shape[2]
    out = list(fits)
    lanes = []
    for s, fit in enumerate(fits):
        if isinstance(fit, FitError):
            continue
        ones = int(fit[4].sum())
        if ones in (0, n):
            out[s] = FitError(f"component {int(ones == 0)} has no hard members "
                              "at convergence")
        else:
            lanes.append(s)
    if not lanes:
        return out
    swap, mu_k, sigma_k = _canonical_lanes(points_t[:, lanes],
                                           np.array([fits[s][4] for s in lanes]))
    for i, s in enumerate(lanes):
        w, mu, var, history, labels = fits[s]
        order = np.array([1, 0]) if swap[i] else np.array([0, 1])
        labels = labels.astype(np.intp)
        out[s] = ClusterModel(algorithm="gmm", mu_k=mu_k[i], sigma_k=sigma_k[i],
                              weights=w[order], means=mu[order], variances=var[order],
                              train_assignments=1 - labels if swap[i] else labels,
                              loglik_history=history)
    return out


def _fit_gmm_lanes(mats, seeds, max_iter: int = 200) -> list[ClusterModel | FitError]:
    """``fit_gmm(mat, max_iter, seed)`` for each pair, in lockstep lanes.

    ``mats`` are validated (n, d) matrices of one shape and ``seeds`` the
    matching k-means seeds of their starts.  Batches of more than one lane
    fit C-ordered copies; a lone lane fits its matrix itself.  The start's
    (d, B, n) copy is dropped before the EM, which holds its own, and
    rebuilt for the member statistics after it.  A lane that fails yields
    its FitError, without traceback, in place of a model and leaves the
    other lanes unchanged.
    """
    n, d = mats[0].shape
    if n < 4:
        return [FitError("need at least 4 rows to fit 2 components") for _ in mats]
    cap = _lane_cap(n, d)
    out: list = []
    for lo in range(0, len(mats), cap):
        batch = mats[lo:lo + cap]
        fits, lanes, params = _start(_lanes_t(batch), seeds[lo:lo + cap])
        if lanes:
            ems = _em(np.stack([batch[s] for s in lanes]) if len(lanes) > 1
                      else batch[lanes[0]][None], *params, max_iter)
            for s, model in zip(lanes, _models(_lanes_t([batch[s] for s in lanes]), ems)):
                fits[s] = model
        out += fits
    return out


def fit_gmm(rows, max_iter: int = 200, seed: int | None = 0) -> ClusterModel:
    """Fit by EM from a k-means start seeded by ``seed``; the recorded
    log-likelihood history is non-decreasing.

    :raises FitError: degenerate data (fewer than 2 distinct rows via the
        k-means init), a start that leaves a component without rows, or an
        empty hard cluster at convergence
    """
    mat = as_matrix(rows)
    fit = _fit_gmm_lanes([mat], [seed], max_iter)[0]
    if isinstance(fit, FitError):
        raise fit
    return fit
