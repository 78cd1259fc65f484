"""Independent reference implementations used to check the real ones.

Everything here is deliberately written in plain Python (loops, the
``statistics`` module, ``math``) so that agreement with the vectorized
package code is meaningful.  The exceptions keep the original numpy
arithmetic the package must reproduce bit for bit: the per-window feature
loop, the one-shot pairwise-distance broadcast and out-of-place spectral
Laplacian, the one-object-per-entry BIRCH tree, the row-major Lloyd and EM
steps (reductions over the short
cluster and feature axes, ``np.argmin``/``np.argmax`` and ``np.average``),
and the time recursions (the simulator's original loops over numpy
scalars).  Only the per-instance builders and the CSV references
at the end use amsdetect.  The builders rebuild ``generate_features`` one
instance at a time: the reference chain block by block from the
package's elementwise PLL and trig blocks and the point-injection and
output-stage references above; a k-stage chain from the transient
reference above, stage by stage; a single opamp through
``simulate_opamp``, whose width-1 loops those references pin.  The CSV
references are the one-row-at-a-time waveform writer and reader whose
bytes, results and error messages the bulk versions must reproduce.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import replace

import numpy as np

from amsdetect.bench import FAULT_EXPERIMENTS, _block_specs, _child_seed
from amsdetect.cluster import canonical_labels
from amsdetect.errors import FitError, InputError
from amsdetect.features import windowed_features
from amsdetect.inject import (ComponentFault, InjectionLocation, PointRandom,
                              apply_component_fault)
from amsdetect.waveforms import (OpampModel, SweepSpec, VrefConfig, Waveform,
                                 _input_rows, _pll_rows, _trig_rows,
                                 default_vref_component_model, simulate_opamp,
                                 sine_stimulus)


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


def nearest_reference(points, centroids):
    """Index of each point's nearest centroid by argmin (ties: the first)."""
    return np.argmin(sqdist_broadcast(points, centroids), axis=1)


def kmeans_pp_init_reference(mat, rng):
    """k-means++ seeding for two centroids with the row-major distance."""
    n = mat.shape[0]
    first = int(rng.integers(n))
    d2 = sqdist_broadcast(mat, mat[[first]])[:, 0]
    total = d2.sum()
    if total <= 0.0:
        raise FitError("cannot seed k centroids: fewer than k distinct points")
    return mat[[first, int(rng.choice(n, p=d2 / total))]]


def lloyd_reference(mat, centroids, max_iter=100, tol=1e-10, weights=None):
    """Row-major Lloyd 2-means: argmin assignment, SSE pass, np.average update."""
    n = mat.shape[0]
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=np.float64)
    centroids = centroids.astype(np.float64).copy()
    labels = None
    history = []
    for _ in range(max_iter):
        d2 = sqdist_broadcast(mat, centroids)
        new_labels = np.argmin(d2, axis=1)
        for j in (0, 1):
            if not np.any(new_labels == j):
                worst = int(np.argmax(w * d2[np.arange(n), new_labels]))
                new_labels[worst] = j
                centroids[j] = mat[worst]
        sse = ((mat - centroids[new_labels]) ** 2).sum(axis=1)
        history.append(float(np.dot(w, sse)))
        if labels is not None and np.array_equal(labels, new_labels):
            labels = new_labels
            break
        labels = new_labels
        for j in (0, 1):
            members = labels == j
            centroids[j] = np.average(mat[members], axis=0, weights=w[members])
        if len(history) >= 2 and history[-2] - history[-1] < tol:
            break
    return centroids, labels, history


def fit_kmeans_reference(mat, seed=0, init=None):
    """(centroids, labels, sse_history) of fit_kmeans, canonically ordered."""
    start = (kmeans_pp_init_reference(mat, np.random.default_rng(seed))
             if init is None else init)
    centroids, labels, history = lloyd_reference(mat, start)
    labels, order, _, _ = canonical_labels(mat, labels)
    return centroids[order], labels, history


class _CFEntry:
    """Clustering feature of one subcluster: (N, LS, SS) and an optional child."""

    __slots__ = ("n", "ls", "ss", "child")

    def __init__(self, n, ls, ss, child=None):
        self.n = int(n)
        self.ls = np.asarray(ls, dtype=np.float64)
        self.ss = np.asarray(ss, dtype=np.float64)
        self.child = child

    @classmethod
    def from_point(cls, x):
        return cls(1, x.copy(), x * x)

    @classmethod
    def merged(cls, a, b):
        return cls(a.n + b.n, a.ls + b.ls, a.ss + b.ss)

    def add_point(self, x):
        self.n += 1
        self.ls = self.ls + x
        self.ss = self.ss + x * x

    def absorb(self, other):
        self.n += other.n
        self.ls = self.ls + other.ls
        self.ss = self.ss + other.ss

    @property
    def centroid(self):
        return self.ls / self.n

    @property
    def radius(self):
        c = self.ls / self.n
        return float(np.sqrt(max(0.0, self.ss.sum() / self.n - float(c @ c))))


class _CFNode:
    __slots__ = ("is_leaf", "entries")

    def __init__(self, is_leaf, entries=None):
        self.is_leaf = is_leaf
        self.entries = entries if entries is not None else []


def _farthest_pair_reference(cents):
    d2 = sqdist_broadcast(cents, cents)
    i, j = np.unravel_index(int(np.argmax(d2)), d2.shape)
    return d2, int(i), int(j)


def _closest_reference(entries, x):
    cents = np.stack([e.centroid for e in entries])
    return int(np.argmin(((cents - x) ** 2).sum(axis=1)))


class _CFTree:
    def __init__(self, branching, threshold):
        self.branching = branching
        self.threshold = threshold
        self.root = _CFNode(is_leaf=True)

    def insert(self, x):
        split = self._insert(self.root, x)
        if split is not None:
            self.root = _CFNode(is_leaf=False, entries=list(split))

    def _insert(self, node, x):
        if node.is_leaf:
            if node.entries:
                i = _closest_reference(node.entries, x)
                trial = _CFEntry.merged(node.entries[i], _CFEntry.from_point(x))
                if trial.radius <= self.threshold:
                    node.entries[i].add_point(x)
                    return None
            node.entries.append(_CFEntry.from_point(x))
        else:
            i = _closest_reference(node.entries, x)
            entry = node.entries[i]
            split = self._insert(entry.child, x)
            if split is None:
                entry.add_point(x)
            else:
                node.entries[i:i + 1] = list(split)
        if len(node.entries) > self.branching:
            return self._split(node)
        return None

    def _split(self, node):
        d2, i, j = _farthest_pair_reference(np.stack([e.centroid for e in node.entries]))
        group_a, group_b = [], []
        for idx, e in enumerate(node.entries):
            (group_a if d2[idx, i] <= d2[idx, j] else group_b).append(e)
        return (self._summarize(_CFNode(node.is_leaf, group_a)),
                self._summarize(_CFNode(node.is_leaf, group_b)))

    @staticmethod
    def _summarize(node):
        total = _CFEntry(0, np.zeros_like(node.entries[0].ls),
                         np.zeros_like(node.entries[0].ss), child=node)
        for e in node.entries:
            total.absorb(e)
        return total



def birch_tree_reference(mat, branching=16, threshold=0.05):
    """The root of a CF tree of one object per entry, built from mat's rows.

    Each entry is an object whose sums are rebuilt out of place on every
    update: the tree whose bits the package's array-backed nodes reproduce.
    A node has ``is_leaf`` and ``entries``; an entry has ``n``, ``ls``,
    ``ss`` and, above the leaves, its subtree in ``child``.
    """
    tree = _CFTree(branching, threshold)
    for x in mat:
        tree.insert(x)
    return tree.root


def birch_leaves_reference(root):
    """(N, LS, SS) of the leaf entries under root, in leaf order."""
    if root.is_leaf:
        return [(e.n, e.ls, e.ss) for e in root.entries]
    return [cf for e in root.entries for cf in birch_leaves_reference(e.child)]


def fit_birch_reference(mat, branching=16, threshold=0.05):
    """(mu_k, sigma_k, centroids, labels, sse_history) of fit_birch."""
    entries = birch_leaves_reference(birch_tree_reference(mat, branching, threshold))
    if len(entries) < 2:
        raise FitError(f"only {len(entries)} leaf subclusters for k=2; "
                       "lower radius_threshold")
    cents = np.stack([ls / n for n, ls, _ in entries])
    counts = np.array([n for n, _, _ in entries], dtype=np.float64)
    if np.unique(cents, axis=0).shape[0] < 2:
        raise FitError("need at least k=2 distinct subcluster centroids")
    _, i, j = _farthest_pair_reference(cents)
    centroids, _, history = lloyd_reference(cents, cents[[i, j]], weights=counts)
    labels, order, mu, sigma = canonical_labels(
        mat, nearest_reference(mat, centroids))
    return mu, sigma, centroids[order], labels, history


def gmm_e_step_reference(weights, means, variances, mat):
    """Row-major E step: log responsibilities (n, 2) and the log-likelihood."""
    w = np.asarray(weights, dtype=np.float64)
    mu = np.asarray(means, dtype=np.float64)
    var = np.asarray(variances, dtype=np.float64)
    log_pdf = -0.5 * (np.log(2.0 * math.pi * var)[None, :, :]
                      + (mat[:, None, :] - mu[None, :, :]) ** 2 / var[None, :, :]
                      ).sum(axis=2)
    log_joint = np.log(w)[None, :] + log_pdf
    m = log_joint.max(axis=1, keepdims=True)
    log_norm = m + np.log(np.exp(log_joint - m).sum(axis=1, keepdims=True))
    return log_joint - log_norm, float(log_norm.sum())


def gmm_m_step_reference(log_resp, mat, var_floor=1e-8):
    """Row-major M step: (weights, means, variances) from log responsibilities."""
    n = mat.shape[0]
    resp = np.exp(log_resp)
    nj = resp.sum(axis=0)
    if np.any(nj <= 0.0):
        raise FitError("a mixture component lost all responsibility")
    mu = (resp.T @ mat) / nj[:, None]
    var = np.empty_like(mu)
    for j in (0, 1):
        var[j] = np.maximum(
            (resp[:, j][:, None] * (mat - mu[j]) ** 2).sum(axis=0) / nj[j],
            var_floor)
    return nj / n, mu, var


def fit_gmm_reference(mat, max_iter=200, tol=1e-9, seed=0, init_means=None,
                      init_variances=None, init_weights=None, var_floor=1e-8):
    """fit_gmm's EM on the row-major steps and the reference k-means.

    :returns: (weights, means, variances, loglik_history, labels), canonical
    """
    n, d = mat.shape
    if init_means is not None:
        mu = np.asarray(init_means, dtype=np.float64).reshape(2, d).copy()
        var = (np.full((2, d), 1.0) if init_variances is None
               else np.asarray(init_variances, dtype=np.float64).reshape(2, d).copy())
        w = (np.full(2, 0.5) if init_weights is None
             else np.asarray(init_weights, dtype=np.float64).copy())
    else:
        mu = fit_kmeans_reference(mat, seed)[0]
        hard = nearest_reference(mat, mu)
        var = np.empty((2, d))
        w = np.empty(2)
        for j in (0, 1):
            members = mat[hard == j]
            var[j] = np.maximum(members.var(axis=0), var_floor)
            w[j] = members.shape[0] / n
    var = np.maximum(var, var_floor)
    history = []
    for _ in range(max_iter):
        log_resp, loglik = gmm_e_step_reference(w, mu, var, mat)
        history.append(loglik)
        if len(history) >= 2 and history[-1] - history[-2] < tol:
            break
        w, mu, var = gmm_m_step_reference(log_resp, mat, var_floor)
    labels, order, _, _ = canonical_labels(mat, np.argmax(log_resp, axis=1))
    return w[order], mu[order], var[order], history, labels


def static_transfer_reference(model, vin, temp):
    """Clipped linear opamp transfer; ``model`` is read for its attributes."""
    out = (model.open_loop_gain * (vin - model.offset)
           + model.temp_coeff * (temp - model.nominal_temp))
    return np.clip(out, model.rail_low, model.rail_high)


def lowpass_reference(drive, alpha):
    """Forward-Euler low-pass from 0 V: y = y + alpha * (drive - y)."""
    out = np.empty(len(drive))
    y = 0.0
    for i in range(len(drive)):
        y = y + alpha * (drive[i] - y)
        out[i] = y
    return out


def slew_reference(target, max_step):
    """Slew limiter: from target[0], move at most max_step toward each target."""
    out = np.empty(len(target))
    y = target[0]
    out[0] = y
    for i in range(1, len(target)):
        y = y + float(np.clip(target[i] - y, -max_step, max_step))
        out[i] = y
    return out


def collapse_reference(first, level, n):
    """Open-output collapse: n steps of y = y + (level - y) / 10 from ``first``."""
    alpha = 1.0 / 10.0
    out = np.empty(n)
    y = float(first)
    for i in range(n):
        y = y + alpha * (level - y)
        out[i] = y
    return out


def opamp_transient_reference(model, samples, dt):
    """Transient opamp output: slew-limited transfer, or the open collapse."""
    samples = np.asarray(samples, dtype=np.float64)
    temp = model.nominal_temp if model.eval_temp is None else model.eval_temp
    target = static_transfer_reference(model, samples, temp)
    if model.open_collapse:
        return collapse_reference(target[0], model.rail_high, len(samples))
    return slew_reference(target, model.slew_rate * dt)


def output_stage_reference(trig, dt, config):
    """Forward-Euler low-pass of the reference's output stage from 0 V."""
    drive = config.output_level + config.output_gain * np.asarray(trig)
    return lowpass_reference(drive, dt / config.output_tau)


def kstage_reference(base, gains, stimulus, anomalous_stages=(), fault=None):
    """Transient output of a k-stage amplifier: each stage feeds the next.

    Stage i runs ``base``, with ``fault`` applied when i is anomalous, and
    closes its loop at gain G = gains[i]: out of open-loop gain A it
    delivers G*A/(A+G).
    """
    samples = stimulus.samples
    for i, g in enumerate(gains):
        opamp = apply_component_fault(base, fault) if i in anomalous_stages else base
        a = opamp.open_loop_gain
        samples = opamp_transient_reference(
            replace(opamp, open_loop_gain=g * a / (a + g)), samples,
            stimulus.sample_period)
    return samples


def point_random_reference(samples, rate_pct, amp_low, amp_high, seed):
    """Random point anomalies: round-half-up(rate_pct/100 * N) of them, at
    least one, at positions drawn without replacement (then sorted), each
    sign(x[i]) * u * max(|x|) with u ~ U[amp_low, amp_high] drawn after the
    positions; a zero sample counts as positive.

    :returns: (injected samples, positions)
    """
    x = [float(v) for v in samples]
    n = len(x)
    count = max(1, math.floor(rate_pct / 100.0 * n + 0.5))
    peak = max(abs(v) for v in x)
    rng = np.random.default_rng(seed)
    positions = sorted(rng.choice(n, size=count, replace=False).tolist())
    out = list(x)
    for i, u in zip(positions, rng.uniform(amp_low, amp_high, count).tolist()):
        out[i] = (-1.0 if x[i] < 0.0 else 1.0) * u * peak
    return np.array(out), positions


def point_periodic_reference(samples, threshold_frac, delta_frac):
    """Periodic point anomalies: every sample at or above
    threshold_frac * max(x) is raised by delta_frac * max(x).

    :returns: (injected samples, positions)
    """
    x = [float(v) for v in samples]
    peak = max(x)
    positions = [i for i, v in enumerate(x) if v >= threshold_frac * peak]
    out = list(x)
    for i in positions:
        out[i] = x[i] + delta_frac * peak
    return np.array(out), positions


def multipoint_reference(config, inp, specs):
    """One instance of the reference chain walked block by block.

    ``inp`` is the input Waveform.  Each block runs on its predecessor's
    signal as it stands after the specs located there were applied, in list
    order; so a spec's threshold and amplitude are relative to the signal at
    its block, upstream anomalies included.

    :returns: signal name -> Waveform
    """
    def inject(x, loc):
        for spec in (s for s in specs if s.location is loc):
            kind = spec.kind
            if isinstance(kind, PointRandom):
                x = point_random_reference(x, kind.rate_pct, kind.amp_low,
                                           kind.amp_high, spec.seed)[0]
            else:
                x = point_periodic_reference(x, kind.threshold_frac,
                                             kind.delta_frac)[0]
        return Waveform(x, dt)

    dt = inp.sample_period
    inp = inject(inp.samples, InjectionLocation.INPUT_A)
    freq, intensity = _pll_rows(inp.samples, dt, config)
    intensity = inject(intensity, InjectionLocation.PLL_B)
    trig = inject(_trig_rows(intensity.samples, config), InjectionLocation.TRIG_C)
    return {"input": inp, "pll_frequency": Waveform(freq, dt),
            "pll_intensity": intensity, "trig": trig,
            "output": Waveform(output_stage_reference(trig.samples, dt, config), dt)}


def _jittered(base, rng, config):
    gain = base.open_loop_gain * max(0.05, 1.0 + rng.normal(0.0, config.jitter_gain))
    offset = base.offset + rng.normal(0.0, config.jitter_offset)
    return replace(base, open_loop_gain=gain, offset=offset)


def _stimulus(config):
    return sine_stimulus(config.n_samples, config.duration, config.stim_dc,
                         config.stim_amplitude, config.stim_frequency)


def _noisy(out, rng, config):
    return {"output": out.copy_with(
        out.samples + rng.normal(0.0, config.measurement_noise, len(out)))}


def block_signals_reference(config, label, idx):
    """One reference-chain instance, its experiment's specs walked down the chain."""
    vcfg = VrefConfig(**{"noise_std": config.noise_std, **config.vref_params})
    dt = config.duration / config.n_samples
    seed = _child_seed(config.seed, label, idx, 0)
    inp = Waveform(_input_rows(vcfg, config.n_samples, dt, [seed])[0], dt)
    return multipoint_reference(vcfg, inp, _block_specs(config, label, idx))


def component_signals_reference(config, label, idx):
    """One jittered (and, if anomalous, faulted) opamp run by simulate_opamp."""
    rng = np.random.default_rng(_child_seed(config.seed, label, idx, 0))
    base = (default_vref_component_model() if config.circuit == "vref_components"
            else OpampModel())
    model = _jittered(base, rng, config)
    if label == 1:
        name = FAULT_EXPERIMENTS[config.experiment]
        temp = config.fault_temperature if name == "Parametric" else None
        model = apply_component_fault(model, ComponentFault.from_name(name, temp))
    if config.analysis == "transient":
        return _noisy(simulate_opamp(model, "transient", _stimulus(config)), rng, config)
    if config.analysis == "dc_input_sweep":
        start = 0.0 if config.sweep_start is None else config.sweep_start
        stop = 0.2 if config.sweep_stop is None else config.sweep_stop
    else:
        start = -40.0 if config.sweep_start is None else config.sweep_start
        stop = 125.0 if config.sweep_stop is None else config.sweep_stop
    out = simulate_opamp(model, config.analysis,
                         SweepSpec(start, stop, config.sweep_points, config.sweep_bias))
    return _noisy(out, rng, config)


def kstage_signals_reference(config, label, idx):
    """One jittered k-stage chain, its fault on drawn or fixed stages."""
    rng = np.random.default_rng(_child_seed(config.seed, label, idx, 0))
    base = _jittered(OpampModel(open_loop_gain=30.0, rail_low=-2.5, rail_high=2.5,
                                offset=0.01, slew_rate=5.0e7), rng, config)
    gains = list(config.kstage_gains or (2.0,) * config.kstage_k)
    if label == 1:
        stages = (config.anomalous_stages if config.anomalous_stages is not None
                  else (int(rng.integers(config.kstage_k)),))
        temp = config.fault_temperature if config.kstage_fault == "Parametric" else None
        fault = ComponentFault.from_name(config.kstage_fault, temp)
    else:
        stages, fault = (), None
    stim = _stimulus(config)
    out = kstage_reference(base, gains, stim, stages, fault)
    return _noisy(stim.copy_with(out, "output"), rng, config)


def features_reference(config):
    """``generate_features`` built one instance at a time.

    :returns: (feats, samples_per_window, sample_period)
    """
    build = {"vref_blocks": block_signals_reference,
             "vref_components": component_signals_reference,
             "opamp": component_signals_reference,
             "kstage": kstage_signals_reference}[config.circuit]
    n, k = config.n_samples_per_class, config.window_k or 1
    feats = np.empty((2 * n, k, len(config.observed_signals), len(config.features)))
    for i in range(2 * n):
        by_name = build(config, *divmod(i, n))
        for j, s in enumerate(config.observed_signals):
            feats[i, :, j] = windowed_features(by_name[s], k, config.features)
    w = by_name[config.observed_signals[0]]
    return feats, len(w) // k, w.sample_period


def waveform_to_csv_reference(w, path):
    """One f-string and one write per sample."""
    with open(path, "w") as fh:
        fh.write("t,value\n")
        for i, v in enumerate(w.samples):
            fh.write(f"{i * w.sample_period:.12e},{v:.12e}\n")


def waveform_from_csv_reference(path, name=""):
    """Strip, split and ``float()`` one line at a time."""
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "t,value":
            raise InputError(f"{path}: expected header 't,value', got {header!r}")
        t, v = [], []
        try:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                a, b = line.split(",")
                t.append(float(a))
                v.append(float(b))
        except ValueError:
            raise InputError(f"{path}: expected 't,value' numbers, got {line!r}") from None
    if len(v) < 2:
        raise InputError(f"{path}: need at least 2 samples")
    times = np.array(t)
    if not np.isfinite(times).all():
        raise InputError(f"{path}: time axis has a non-finite value")
    dt = t[1] - t[0]
    if dt <= 0:
        raise InputError(f"{path}: non-increasing time axis")
    if np.any(np.abs(times - times[0] - np.arange(times.size) * dt)
              > 1e-6 * (np.abs(times) + dt)):
        raise InputError(f"{path}: time axis is not uniformly spaced")
    return Waveform(np.array(v), dt, name)
