"""Two-component diagonal-covariance Gaussian mixture fitted by EM.

Initialization comes from a k-means fit with the same seed unless explicit
starting parameters are given (the explicit path exists so a single EM step
can be checked against an independent oracle).  The E step runs in log space;
variances are floored at 1e-8 to keep components from collapsing onto
coincident points.  Hard assignments are argmax responsibility.

One EM loop fits B same-shape data sets ("lanes") at once, in lockstep;
``fit_gmm`` is its one-lane call.  A suite fits many small (n, d) matrices,
and per-call numpy overhead, not arithmetic, sets their cost, so stacking
the lanes shares every numpy call among them.  The lockstep contract:

- every lane stops on its own: when its log-likelihood gains less than
  ``tol``, or when its own M step loses a component (a FitError for that
  lane alone); the active lanes are then packed to the front of the
  buffers, which are allocated once per batch and sliced to the active
  count, so later steps run on the survivors only;
- a lane that reaches ``max_iter`` takes the final M step, as a lone fit
  does: its parameters are the post-M values while its labels and history
  come from the last E step;
- a batch holds at most ``_lane_cap(n, d)`` lanes (measured; see there),
  so fits with many rows run one lane at a time.

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
from .kmeans import fit_kmeans
from .model import ClusterModel, _lane_sum, _nearest, as_matrix, canonical_labels

__all__ = ["fit_gmm", "VAR_FLOOR"]

VAR_FLOOR = 1e-8

# Bytes of one batch's (2, d, B, n) work array; see _lane_cap.
_WORK_BYTES = 1 << 18


def _lane_cap(n: int, d: int) -> int:
    """Most lanes of shape (n, d) one lockstep batch holds.

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


def _start(mat, seed=0, init_means=None, init_variances=None, init_weights=None):
    """Starting (weights, means, variances): explicit, or from a k-means fit."""
    n, d = mat.shape
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
    return w, mu, np.maximum(var, VAR_FLOOR)


def _lane(s, w, mu, var, log_resp) -> tuple:
    """Slot s's (weights, means, variances, labels) from lane-last state."""
    return w[:, s], mu[:, :, s], var[:, :, s], log_resp[1, s] > log_resp[0, s]


def _em(x, w, mu, var, max_iter, tol) -> list:
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
        done = [h - p < tol for h, p in zip(ll, prev)]
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


def _model(mat, w, mu, var, history, labels) -> ClusterModel:
    labels = labels.astype(np.intp)
    for j in (0, 1):
        if not np.any(labels == j):
            raise FitError(f"component {j} has no hard members at convergence")
    labels, order, mu_stats, sigma_stats = canonical_labels(mat, labels)
    return ClusterModel(algorithm="gmm", mu_k=mu_stats, sigma_k=sigma_stats,
                        weights=w[order], means=mu[order], variances=var[order],
                        train_assignments=labels, loglik_history=history)


def _fit_gmm_lanes(mats, inits, max_iter: int = 200, tol: float = 1e-9
                   ) -> list[ClusterModel | FitError]:
    """``fit_gmm(mat, max_iter, tol, **init)`` for each pair, EM in lockstep.

    ``mats`` are validated (n, d) matrices of one shape and ``inits`` the
    matching dicts of ``fit_gmm``'s start arguments (``seed`` or the
    ``init_*`` arrays).  Batches of more than one lane fit C-ordered copies;
    a lone lane fits its matrix itself.  A lane that fails yields its
    FitError, without traceback, in place of a model and leaves the other
    lanes unchanged.
    """
    n, d = mats[0].shape
    if n < 4:
        return [FitError("need at least 4 rows to fit 2 components") for _ in mats]
    out: list = [None] * len(mats)
    starts = []
    for i, (mat, init) in enumerate(zip(mats, inits)):
        try:
            starts.append((i, _start(mat, **init)))
        except FitError as exc:
            out[i] = exc.with_traceback(None)    # its frames would hold `out`
    cap = _lane_cap(n, d)
    for b in range(0, len(starts), cap):
        idx, params = zip(*starts[b:b + cap])
        if len(idx) == 1:
            x, params = mats[idx[0]][None], [a[..., None] for a in params[0]]
        else:
            x = np.stack([mats[i] for i in idx])
            params = [np.stack(a, axis=-1) for a in zip(*params)]
        for i, fit in zip(idx, _em(x, *params, max_iter, tol)):
            try:
                out[i] = fit if isinstance(fit, FitError) else _model(mats[i], *fit)
            except FitError as exc:
                out[i] = exc.with_traceback(None)
    return out


def fit_gmm(rows, max_iter: int = 200, tol: float = 1e-9,
            seed: int | None = 0, init_means=None, init_variances=None,
            init_weights=None) -> ClusterModel:
    """Fit by EM; the recorded log-likelihood history is non-decreasing.

    :raises FitError: degenerate data (fewer than 2 distinct rows via the
        k-means init) or an empty hard cluster at convergence
    """
    mat = as_matrix(rows)
    init = ({"seed": seed} if init_means is None else
            {"init_means": init_means, "init_variances": init_variances,
             "init_weights": init_weights})
    fit = _fit_gmm_lanes([mat], [init], max_iter, tol)[0]
    if isinstance(fit, FitError):
        raise fit
    return fit
