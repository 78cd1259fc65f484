"""Independent reference implementations used to check the real ones.

Everything here is deliberately written in plain Python (loops, the
``statistics`` module, ``math``) so that agreement with the vectorized
package code is meaningful.  The exceptions keep the original numpy
arithmetic the package must reproduce bit for bit: the per-window feature
loop, the one-shot pairwise-distance broadcast and out-of-place spectral
Laplacian, and the time recursions at the end (the simulator's original
loops over numpy scalars).  Keep this module free of amsdetect imports.
"""

from __future__ import annotations

import math
import statistics

import numpy as np


def exhaustive_two_means(points):
    """Globally optimal 2-partition by SSE, by trying every partition.

    :param points: sequence of scalars or equal-length tuples, len <= 20
    :returns: (best_sse, labels) with labels[i] in {0, 1}; label 0 goes to
        the group whose mean has the smaller first coordinate
    """
    pts = [tuple(p) if hasattr(p, "__len__") else (float(p),) for p in points]
    n = len(pts)
    if n < 2:
        raise ValueError("need at least two points")
    dims = len(pts[0])
    best_sse = math.inf
    best_mask = None
    # point 0 pinned to group 0 halves the search space
    for mask in range(1, 2 ** (n - 1)):
        groups = ([], [])
        groups[0].append(pts[0])
        for i in range(1, n):
            groups[(mask >> (i - 1)) & 1].append(pts[i])
        if not groups[1]:
            continue
        sse = 0.0
        for g in groups:
            cent = [sum(p[d] for p in g) / len(g) for d in range(dims)]
            sse += sum((p[d] - cent[d]) ** 2 for p in g for d in range(dims))
        if sse < best_sse:
            best_sse = sse
            best_mask = mask
    labels = [0] + [(best_mask >> (i - 1)) & 1 for i in range(1, n)]
    mean0 = sum(pts[i][0] for i in range(n) if labels[i] == 0) / labels.count(0)
    mean1 = sum(pts[i][0] for i in range(n) if labels[i] == 1) / labels.count(1)
    if mean1 < mean0:
        labels = [1 - l for l in labels]
    return best_sse, labels


def em_step(points, weights, means, variances, var_floor=1e-8):
    """One EM iteration for a diagonal-covariance Gaussian mixture.

    :returns: (loglik_at_input_params, new_weights, new_means, new_variances)
    """
    pts = [tuple(p) if hasattr(p, "__len__") else (float(p),) for p in points]
    n, d, k = len(pts), len(pts[0]), len(weights)
    log2pi = math.log(2.0 * math.pi)
    resp = [[0.0] * k for _ in range(n)]
    loglik = 0.0
    for i, p in enumerate(pts):
        comp = []
        for c in range(k):
            s = math.log(weights[c])
            for j in range(d):
                v = variances[c][j]
                s -= 0.5 * (log2pi + math.log(v) + (p[j] - means[c][j]) ** 2 / v)
            comp.append(s)
        mx = max(comp)
        total = mx + math.log(sum(math.exp(s - mx) for s in comp))
        loglik += total
        for c in range(k):
            resp[i][c] = math.exp(comp[c] - total)
    nj = [sum(resp[i][c] for i in range(n)) for c in range(k)]
    new_w = [nj[c] / n for c in range(k)]
    new_mu = [[sum(resp[i][c] * pts[i][j] for i in range(n)) / nj[c]
               for j in range(d)] for c in range(k)]
    new_var = [[max(sum(resp[i][c] * (pts[i][j] - new_mu[c][j]) ** 2
                        for i in range(n)) / nj[c], var_floor)
                for j in range(d)] for c in range(k)]
    return loglik, new_w, new_mu, new_var


def selection_trace(values, mu_k, sigma_k, sigma_scope="global"):
    """Reference walk for the interval-mean centroid selection rule.

    Mirrors the documented semantics step by step with explicit loops:
    for each side, walk i = 1..4, take the first i minimizing the gap
    between the cluster-mean walk (inward by its own sigma) and the
    global-mean walk (outward by the global sigma), bound the averaging
    interval with (i + 1) steps of the scope sigma, and average the values
    inside; an empty or inverted interval falls back to the cluster mean.

    :returns: dict(low, high, m_l, m_g, low_fallback, high_fallback)
    """
    xs = [float(v) for v in values]
    mu = statistics.fmean(xs)
    sigma = statistics.pstdev(xs)
    mk0, mk1 = float(mu_k[0]), float(mu_k[1])
    sk0, sk1 = float(sigma_k[0]), float(sigma_k[1])
    if mk1 < mu or mk0 > mu:
        raise ValueError("degenerate: cluster means on one side of the mean")

    out = {"low": mk0, "high": mk1, "m_l": 1, "m_g": 1,
           "low_fallback": True, "high_fallback": True}

    if mk0 < mu:
        gaps = []
        for i in (1, 2, 3, 4):
            gaps.append(abs((mk0 + i * sk0) - (mu - i * sigma)))
        best, m = gaps[0], 1
        for i in (2, 3, 4):
            if gaps[i - 1] < best:
                best, m = gaps[i - 1], i
        out["m_l"] = m
        step = sigma if sigma_scope == "global" else sk0
        lo_bound = mk0 + (m + 1) * step
        if lo_bound <= mu:
            inside = [v for v in xs if lo_bound <= v <= mu]
            if inside:
                out["low"] = statistics.fmean(inside)
                out["low_fallback"] = False

    if mk1 > mu:
        gaps = []
        for i in (1, 2, 3, 4):
            gaps.append(abs((mk1 - i * sk1) - (mu + i * sigma)))
        best, m = gaps[0], 1
        for i in (2, 3, 4):
            if gaps[i - 1] < best:
                best, m = gaps[i - 1], i
        out["m_g"] = m
        step = sigma if sigma_scope == "global" else sk1
        hi_bound = mk1 - (m + 1) * step
        if hi_bound >= mu:
            inside = [v for v in xs if mu <= v <= hi_bound]
            if inside:
                out["high"] = statistics.fmean(inside)
                out["high_fallback"] = False

    return out


def straight_line_fit(values):
    """Least-squares slope of values against their 0-based index."""
    n = len(values)
    xs = list(range(n))
    xbar = statistics.fmean(xs)
    ybar = statistics.fmean(values)
    num = sum((x - xbar) * (y - ybar) for x, y in zip(xs, values))
    den = sum((x - xbar) ** 2 for x in xs)
    return num / den


def per_window_features(x, k, selection):
    """Features of k equal windows, one window at a time: (k, len(selection)).

    The original per-window numpy arithmetic: np.mean, np.var and the slope
    as one dot of the centred index against the centred window.
    """
    width = len(x) // k
    out = np.empty((k, len(selection)))
    for i in range(k):
        w = x[i * width:(i + 1) * width]
        for j, name in enumerate(selection):
            if name == "mean":
                out[i, j] = float(np.mean(w))
            elif name == "variance":
                out[i, j] = float(np.var(w))
            else:
                idx = np.arange(width, dtype=np.float64)
                di = idx - idx.mean()
                out[i, j] = float(np.dot(di, w - w.mean()) / np.dot(di, di))
    return out


def sqdist_broadcast(a, b):
    """Squared distances between the rows of a and b by one (na, nb, d) broadcast."""
    return ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)


def spectral_embedding_reference(mat, sigma):
    """Eigenvalues and 2-dim embedding of the normalized Laplacian, out of place.

    Every step allocates a fresh (n, n) array: the plain form whose bits the
    in-place construction in the package must reproduce.
    """
    w = np.exp(-sqdist_broadcast(mat, mat) / (2.0 * sigma * sigma))
    np.fill_diagonal(w, 0.0)
    inv_sqrt = 1.0 / np.sqrt(w.sum(axis=1))
    lap = -inv_sqrt[:, None] * w * inv_sqrt[None, :]
    np.fill_diagonal(lap, 1.0 + lap.diagonal())
    lap = 0.5 * (lap + lap.T)
    eigvals, eigvecs = np.linalg.eigh(lap)
    return eigvals, eigvecs[:, :2]


def static_transfer_reference(model, vin, temp):
    """Clipped linear opamp transfer; ``model`` is read for its attributes."""
    out = (model.open_loop_gain * (vin - model.offset)
           + model.temp_coeff * (temp - model.nominal_temp))
    return np.clip(out, model.rail_low, model.rail_high)


def opamp_transient_reference(model, samples, dt):
    """Transient opamp output: slew-limited transfer, or the open collapse.

    Steps through numpy arrays element by element, as the simulator did
    before its loops moved to Python floats.
    """
    samples = np.asarray(samples, dtype=np.float64)
    temp = model.nominal_temp if model.eval_temp is None else model.eval_temp
    if model.open_collapse:
        alpha = 1.0 / 10.0
        out = np.empty(len(samples))
        y = float(static_transfer_reference(model, samples[:1], temp)[0])
        for i in range(len(samples)):
            y = y + alpha * (model.rail_high - y)
            out[i] = y
        return out
    target = static_transfer_reference(model, samples, temp)
    max_step = model.slew_rate * dt
    out = np.empty(len(samples))
    y = target[0]
    out[0] = y
    for i in range(1, len(samples)):
        y = y + float(np.clip(target[i] - y, -max_step, max_step))
        out[i] = y
    return out


def output_stage_reference(trig, dt, config):
    """Forward-Euler low-pass of the reference's output stage from 0 V."""
    alpha = dt / config.output_tau
    drive = config.output_level + config.output_gain * np.asarray(trig)
    out = np.empty(len(drive))
    y = 0.0
    for i in range(len(drive)):
        y = y + alpha * (drive[i] - y)
        out[i] = y
    return out
