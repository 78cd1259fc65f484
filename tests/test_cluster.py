import dataclasses
import gc
import json
import platform
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from amsdetect import (ConfigurationError, FitError, InputError, VAR_FLOOR,
                       as_matrix, assign_many, cluster_stats, fit_birch,
                       fit_gmm, fit_kmeans, fit_spectral,
                       load_model, save_model)
from amsdetect.cluster import ClusterModel, canonical_labels, lloyd, spectral
from amsdetect.cluster.birch import _leaf_features, _Node, _radius, _Tree
from amsdetect.cluster.gmm import _fit_gmm_lanes, _log_resp_rows
from amsdetect.cluster.model import (_WORK_ELEMS, _lane_sum, _nearest, _sqdist,
                                    _two_distinct_rows)
from amsdetect.cluster.spectral import spectral_embedding
from oracles import (birch_leaves_reference, birch_tree_reference, em_step,
                     exhaustive_two_means,
                     fit_birch_reference, fit_gmm_reference, fit_kmeans_reference,
                     gmm_e_step_reference, lloyd_reference, nearest_reference,
                     spectral_embedding_reference, sqdist_broadcast)


def _accuracy(labels, assignments):
    a = np.mean(assignments == labels)
    return max(a, 1.0 - a)


# ---------------------------------------------------------------- kmeans

def test_kmeans_matches_exhaustive_optimum(tiny_sets):
    for pts in tiny_sets:
        arr = np.asarray(pts)[:, None]
        best_sse, best_labels = exhaustive_two_means(pts)
        model = fit_kmeans(arr, init=np.array([[min(pts)], [max(pts)]]))
        assert model.sse_history[-1] == pytest.approx(best_sse, rel=1e-12)
        got = assign_many(model, arr)
        assert np.array_equal(got, best_labels)


def test_kmeans_sse_history_non_increasing(blobs_2d):
    mat, _ = blobs_2d
    model = fit_kmeans(mat, seed=1)
    hist = np.asarray(model.sse_history)
    assert np.all(np.diff(hist) <= 1e-9)


def test_kmeans_canonical_cluster_order(blobs_2d):
    mat, labels = blobs_2d
    model = fit_kmeans(mat, seed=0)
    assert model.mu_k[0, 0] < model.mu_k[1, 0]
    assert _accuracy(labels, assign_many(model, mat)) == 1.0


def test_kmeans_row_order_invariance(blobs_2d):
    mat, _ = blobs_2d
    a = fit_kmeans(mat, seed=3)
    shuffled = mat[np.random.default_rng(5).permutation(len(mat))]
    b = fit_kmeans(shuffled, seed=3)
    assert np.allclose(a.mu_k, b.mu_k, atol=1e-12)


def test_kmeans_deterministic(blobs_2d):
    mat, _ = blobs_2d
    a = fit_kmeans(mat, seed=4)
    b = fit_kmeans(mat, seed=4)
    assert np.array_equal(a.centroids, b.centroids)


def test_kmeans_errors():
    with pytest.raises(FitError):
        fit_kmeans(np.array([[1.0]]))
    with pytest.raises(FitError):
        fit_kmeans(np.ones((6, 2)))           # one distinct point
    with pytest.raises(ConfigurationError):
        fit_kmeans(np.arange(6.0)[:, None], init="farthest")
    with pytest.raises(ConfigurationError):
        fit_kmeans(np.arange(6.0)[:, None], init=np.zeros((3, 1)))


# few distinct values, so duplicate rows and all-equal matrices are common
_DUP_PRONE = arrays(np.float64, st.tuples(st.integers(1, 8), st.integers(1, 3)),
                    elements=st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e-300]))


@given(_DUP_PRONE)
@example(np.array([[0.0, -0.0], [-0.0, 0.0], [0.0, 0.0]]))
@example(np.array([[3.0, 1.0]]))
@example(np.array([[1.0], [1.0], [1.0], [2.0]]))
@settings(max_examples=300, deadline=None)
def test_distinct_row_check_agrees_with_unique(mat):
    assert _two_distinct_rows(mat) == (np.unique(mat, axis=0).shape[0] >= 2)


def test_lloyd_revives_empty_cluster():
    mat = np.array([[0.0], [0.1], [0.2], [10.0]])
    start = np.array([[100.0], [200.0]])    # both start far away
    cents, labels, hist = lloyd(mat, start)
    assert len(set(labels.tolist())) == 2
    assert np.all(np.diff(hist) <= 1e-9)


def test_lloyd_refuses_a_cluster_of_zero_weight():
    mat = np.array([[0.0], [1.0], [5.0], [6.0]])
    with pytest.raises(FitError, match="cluster 0 sum to zero"):
        lloyd(mat, mat[[0, 3]], weights=np.array([0.0, 0.0, 1.0, 1.0]))


# ------------------------------------------------------------------- gmm

def test_gmm_single_em_step_matches_reference():
    pts = [0.0, 0.1, 0.2, 0.9, 1.0, 1.1]
    init_mu = [[0.1], [1.0]]
    init_var = [[0.04], [0.04]]
    init_w = [0.5, 0.5]
    ll, new_w, new_mu, new_var = em_step(pts, init_w, init_mu, init_var,
                                         var_floor=VAR_FLOOR)
    model = fit_gmm(np.asarray(pts)[:, None], max_iter=1, init_means=init_mu,
                    init_variances=init_var, init_weights=init_w)
    assert model.loglik_history[0] == pytest.approx(ll, rel=1e-12)
    assert np.allclose(model.weights, new_w, rtol=1e-12)
    assert np.allclose(model.means, np.asarray(new_mu), rtol=1e-12)
    assert np.allclose(model.variances, np.asarray(new_var), rtol=1e-12)


def test_gmm_loglik_history_non_decreasing(blobs_2d):
    mat, labels = blobs_2d
    model = fit_gmm(mat, seed=2)
    hist = np.asarray(model.loglik_history)
    assert np.all(np.diff(hist) >= -1e-9)
    assert _accuracy(labels, assign_many(model, mat)) == 1.0


def test_gmm_variance_floor():
    # two coincident-point clumps force the floor
    mat = np.array([[0.0], [0.0], [0.0], [1.0], [1.0], [1.0]])
    model = fit_gmm(mat, seed=0)
    assert np.all(model.variances >= VAR_FLOOR)


def test_gmm_responsibilities_sum_to_one(blobs_2d):
    mat, _ = blobs_2d
    model = fit_gmm(mat, seed=0)
    log_resp, _ = _log_resp_rows(model.weights, model.means, model.variances, mat)
    resp = np.exp(log_resp)
    assert resp.shape == (2, len(mat))
    assert np.allclose(resp.sum(axis=0), 1.0)


def test_gmm_needs_enough_rows():
    with pytest.raises(FitError):
        fit_gmm(np.arange(3.0)[:, None])


# ----------------------------------------------------------------- birch

int_points = st.lists(
    st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
    min_size=2, max_size=24)


def _cf_rows(pts, starts):
    """A leaf node with one CF entry per start index, each from that point."""
    node = _Node(len(starts), pts.shape[1], leaf=True)
    for k in starts:
        node.insert(node.m, 1, pts[k], pts[k] * pts[k])
    return node


@given(int_points, st.integers(1, 23))
@settings(max_examples=80, deadline=None)
def test_cf_additivity_is_exact(pts, cut):
    """CF(A u B) == CF(A) + CF(B) exactly on integer-representable points."""
    cut = min(cut, len(pts) - 1)
    arr = np.asarray(pts, dtype=np.float64)
    node = _cf_rows(arr, [0, 0, cut])          # whole, left, right
    for entry, points in ((0, arr[1:]), (1, arr[1:cut]), (2, arr[cut + 1:])):
        for p in points:
            node.add_point(entry, p, p * p)
    halves = _Node(2, arr.shape[1], leaf=True)
    for k in (1, 2):
        halves.insert(halves.m, node.n[k], node.ls[k], node.ss[k])
    n, ls, ss = halves.total()
    assert n == node.n[0] == len(pts)
    assert np.array_equal(ls, node.ls[0])
    assert np.array_equal(ss, node.ss[0])


def test_cf_radius_hand_value():
    node = _cf_rows(np.array([[0.0, 0.0]]), [0])
    x = np.array([2.0, 0.0])
    node.add_point(0, x, x * x)
    assert np.array_equal(node.centroids(), [[1.0, 0.0]])
    assert _radius(node.n[0], node.ls[0], node.ss[0]) == pytest.approx(1.0)


def test_birch_clusters_blobs(blobs_2d):
    mat, labels = blobs_2d
    model = fit_birch(mat, branching=16, radius_threshold=0.05)
    assert _accuracy(labels, assign_many(model, mat)) == 1.0
    assert model.mu_k[0, 0] < model.mu_k[1, 0]


def test_birch_deterministic_without_seed(blobs_2d):
    mat, _ = blobs_2d
    a = fit_birch(mat)
    b = fit_birch(mat)
    assert np.array_equal(a.centroids, b.centroids)


def test_birch_coarse_threshold_still_splits(blobs_2d):
    mat, labels = blobs_2d
    model = fit_birch(mat, radius_threshold=0.3)
    assert _accuracy(labels, assign_many(model, mat)) == 1.0


def test_birch_validation():
    mat = np.random.default_rng(0).normal(size=(20, 2))
    with pytest.raises(ConfigurationError):
        fit_birch(mat, branching=1)
    with pytest.raises(ConfigurationError):
        fit_birch(mat, radius_threshold=0.0)
    with pytest.raises(FitError):
        fit_birch(np.ones((10, 2)))          # single distinct point


# -------------------------------------------------------------- spectral

def test_spectral_embedding_properties(blobs_2d):
    mat, _ = blobs_2d
    eigvals, emb = spectral_embedding(mat[:50], sigma=0.3)
    assert eigvals[0] == pytest.approx(0.0, abs=1e-8)
    assert np.all(np.diff(eigvals) >= -1e-12)
    gram = emb.T @ emb
    assert np.allclose(gram, np.eye(2), atol=1e-8)


def test_spectral_clusters_blobs(blobs_2d):
    mat, labels = blobs_2d
    model = fit_spectral(mat, sigma=0.3, seed=0)
    assert _accuracy(labels, assign_many(model, mat)) == 1.0


def test_spectral_out_of_sample_uses_nearest_row(blobs_2d):
    mat, labels = blobs_2d
    model = fit_spectral(mat, sigma=0.3, seed=0)
    train = assign_many(model, mat)
    assert np.array_equal(train, model.train_assignments)
    probe = np.array([[0.19, 0.21], [0.81, 0.79]])
    got = assign_many(model, probe)
    assert got[0] != got[1]
    assert got[0] == model.train_assignments[
        np.argmin(((mat - probe[0]) ** 2).sum(axis=1))]


def test_spectral_trims_heap_before_large_buffers(blobs_2d, monkeypatch):
    mat, _ = blobs_2d
    if platform.libc_ver()[0] == "glibc":
        assert spectral._malloc_trim is not None
    monkeypatch.setattr(spectral, "_malloc_trim", None)
    want = spectral_embedding(mat[:40], sigma=0.3)
    calls = []
    monkeypatch.setattr(spectral, "_malloc_trim", calls.append)
    monkeypatch.setattr(spectral, "_TRIM_BYTES", 8 * 40 * 40)
    spectral_embedding(mat[:39], sigma=0.3)
    assert calls == []
    got = spectral_embedding(mat[:40], sigma=0.3)
    assert calls == [0]
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


def test_spectral_validation():
    with pytest.raises(ConfigurationError):
        fit_spectral(np.zeros((10, 1)), sigma=0.0)
    with pytest.raises(FitError):
        fit_spectral(np.array([[0.0], [1.0]]), sigma=0.3)
    far = np.array([[0.0], [0.001], [0.002], [1e9]])
    with pytest.raises(FitError):
        fit_spectral(far, sigma=1e-4)        # isolated row: zero affinity


# ------------------------------------------------------- model plumbing

def test_as_matrix_shapes():
    assert as_matrix(np.arange(4.0)).shape == (4, 1)
    assert as_matrix([[1.0, 2.0]]).shape == (1, 2)
    with pytest.raises(InputError):
        as_matrix(np.zeros((2, 2, 2)))


def test_assign_nearest_centroid_tie_prefers_lower_id(blobs_1d):
    mat, _ = blobs_1d
    model = fit_kmeans(mat, seed=0)
    mid = (model.centroids[0] + model.centroids[1]) / 2.0
    assert np.array_equal(assign_many(model, mid[None, :]), [0])


def test_canonical_labels_orders_by_first_dim():
    mat = np.array([[10.0, 1.0], [10.2, 3.0], [0.0, 5.0], [0.2, 7.0]])
    labels = np.array([0, 0, 1, 1])          # cluster 0 currently higher
    new, order, mu_k, sigma_k = canonical_labels(mat, labels)
    assert np.array_equal(order, [1, 0])
    assert np.array_equal(new, [1, 1, 0, 0])
    assert np.allclose(mu_k, [[0.1, 6.0], [10.1, 2.0]])
    assert np.allclose(sigma_k, [[0.1, 1.0], [0.1, 1.0]])
    same, order, _, _ = canonical_labels(mat, 1 - labels)
    assert np.array_equal(order, [0, 1]) and np.array_equal(same, 1 - labels)
    tied = mat.copy()
    tied[:, 0] = [0.0, 1.0, 1.0, 0.0]       # equal dim-0 means keep their ids
    same, order, _, _ = canonical_labels(tied, labels)
    assert np.array_equal(order, [0, 1]) and np.array_equal(same, labels)
    with pytest.raises(FitError):
        canonical_labels(mat, np.zeros(4, dtype=np.int64))


def test_cluster_stats_are_canonical(blobs_2d):
    mat, _ = blobs_2d
    model = fit_gmm(mat, seed=1)
    mu_k, sigma_k = cluster_stats(model, mat)
    assert mu_k[0, 0] < mu_k[1, 0]
    assert np.all(sigma_k >= 0)
    km = fit_kmeans(mat, seed=0)
    swapped = dataclasses.replace(km, centroids=km.centroids[::-1].copy())
    for got, want in zip(cluster_stats(swapped, mat), cluster_stats(km, mat)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("fit", [lambda m: fit_kmeans(m, seed=0), fit_birch,
                                 lambda m: fit_spectral(m, sigma=0.3, seed=0)])
def test_relabelled_state_assigns_like_the_fit(blobs_2d, fit):
    """High blob first, so the fit's own cluster 0 is relabelled 1."""
    mat = blobs_2d[0][::-1]
    model = fit(mat)
    assert model.mu_k[0, 0] < model.mu_k[1, 0]
    assert np.array_equal(assign_many(model, mat), model.train_assignments)


def test_model_round_trip_is_exact(tmp_path, blobs_2d):
    mat, _ = blobs_2d
    for fitter in (lambda: fit_kmeans(mat, seed=0),
                   lambda: fit_gmm(mat, seed=0),
                   lambda: fit_birch(mat),
                   lambda: fit_spectral(mat, sigma=0.3, seed=0)):
        model = fitter()
        path = tmp_path / f"{model.algorithm}.json"
        save_model(model, path)
        back = load_model(path)
        assert back.algorithm == model.algorithm
        assert np.array_equal(back.mu_k, model.mu_k)
        assert np.array_equal(back.sigma_k, model.sigma_k)
        if model.centroids is not None:
            assert np.array_equal(back.centroids, model.centroids)
        assert np.array_equal(assign_many(back, mat), assign_many(model, mat))


def test_model_file_version_guard(tmp_path, blobs_1d):
    mat, _ = blobs_1d
    model = fit_kmeans(mat, seed=0)
    path = tmp_path / "m.json"
    save_model(model, path)
    doc = path.read_text()
    path.write_text(doc.replace('"amsdetect-model"', '"other-tool"'))
    with pytest.raises(InputError):
        load_model(path)
    path.write_text(doc.replace('"version": 1', '"version": 99'))
    with pytest.raises(InputError):
        load_model(path)


def test_load_model_rejects_more_than_two_clusters(tmp_path, blobs_1d):
    mat, _ = blobs_1d
    path = tmp_path / "m.json"
    save_model(fit_kmeans(mat, seed=0), path)
    doc = json.loads(path.read_text())
    assert doc["k"] == 2
    doc["k"] = 3
    doc["mu_k"].append(doc["mu_k"][0])
    doc["sigma_k"].append(doc["sigma_k"][0])
    path.write_text(json.dumps(doc))
    with pytest.raises(InputError, match="k must be 2"):
        load_model(path)


def test_all_four_algorithms_separate_blobs(blobs_2d):
    mat, labels = blobs_2d
    fits = {
        "kmeans": fit_kmeans(mat, seed=0),
        "gmm": fit_gmm(mat, seed=0),
        "birch": fit_birch(mat),
        "spectral": fit_spectral(mat, sigma=0.3, seed=0),
    }
    for name, model in fits.items():
        acc = _accuracy(labels, assign_many(model, mat))
        assert acc == 1.0, f"{name} failed separation"


# --------------------------------------------------- row-blocked kernels

def _kernel_inputs(nb, d, which, tied, seed):
    """(a, b) with a's row count on or next to a multiple of the row block.

    A block holds as many rows of a as keep its (d, rows, nb) work array
    within _WORK_ELEMS.
    """
    block = max(1, _WORK_ELEMS // (nb * d))
    na = (1, max(1, block - 1), block, block + 1, 3 * block + 5)[which]
    rng = np.random.default_rng(seed)
    if tied:  # a small grid and repeated centroid rows make exact ties common
        pool = rng.integers(0, 3, (max(1, nb // 2), d)).astype(np.float64)
        return (rng.integers(0, 3, (na, d)).astype(np.float64),
                pool[rng.integers(0, len(pool), nb)])
    return rng.normal(0.0, 1.0, (na, d)), rng.normal(0.0, 1.0, (nb, d))


@given(st.integers(1, 2500), st.integers(1, 30), st.integers(0, 4),
       st.booleans(), st.integers(0, 2**32 - 1))
@example(nb=2, d=130, which=3, tied=False, seed=0)      # split pairwise sum
@example(nb=40, d=300, which=2, tied=True, seed=1)
@example(nb=1000, d=131, which=4, tied=False, seed=2)   # one row per block
@settings(max_examples=80, deadline=None)
def test_blocked_kernels_match_one_shot_broadcast(nb, d, which, tied, seed):
    """Byte-equal to the one-shot (na, nb, d) broadcast across block edges."""
    a, b = _kernel_inputs(nb, d, which, tied, seed)
    want = sqdist_broadcast(a, b)
    assert _sqdist(a, b).tobytes() == want.tobytes()
    got = _nearest(a, b)
    assert got.dtype == np.intp
    assert np.array_equal(got, np.argmin(want, axis=1))  # ties: first minimum


_TILE = spectral._TILE
_TILE_EDGES = [_TILE - 1, _TILE, _TILE + 1, 2 * _TILE, 2 * _TILE + 1, 3 * _TILE - 1]


@given(st.one_of(st.integers(3, 400), st.sampled_from(_TILE_EDGES)),
       st.integers(1, 30), st.floats(0.3, 3.0), st.integers(0, 2**32 - 1))
@example(n=_TILE, d=9, scale=1.0, seed=0)
@example(n=_TILE + 1, d=3, scale=0.5, seed=1)
@example(n=2 * _TILE + 1, d=9, scale=1.0, seed=2)
@settings(max_examples=30, deadline=None)
def test_in_place_laplacian_matches_reference(n, d, scale, seed):
    """Eigenvalues and embedding byte-equal to the out-of-place Laplacian.

    Row counts on and next to multiples of the symmetrization tile put the
    last tile row and column at every width from 1 to a full tile.
    """
    mat = np.random.default_rng(seed).normal(0.0, 1.0, (n, d))
    sigma = scale * np.sqrt(d)
    got = spectral_embedding(mat, sigma)
    want = spectral_embedding_reference(mat, sigma)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()


def _traced_peak(fn, *args):
    """Peak bytes traced while fn runs; numpy reports its buffers to tracemalloc."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class _EighReached(Exception):
    pass


def test_kernels_hold_no_pairwise_tensor(monkeypatch):
    """At n = 1,000, d = 9 no kernel holds the (n, n, d) tensor of 9·(8n²) bytes."""
    n = 1000
    mat = np.random.default_rng(0).normal(0.0, 1.0, (n, 9))
    nn = 8 * n * n
    assert _traced_peak(_sqdist, mat, mat) <= 1.5 * nn
    assert _traced_peak(_nearest, mat, mat) <= 0.5 * nn

    peak = []

    def eigh_stub(lap):  # stop at eigh: its own workspace is out of scope
        peak.append(tracemalloc.get_traced_memory()[1])
        raise _EighReached

    monkeypatch.setattr(np.linalg, "eigh", eigh_stub)
    with pytest.raises(_EighReached):
        _traced_peak(spectral_embedding, mat, 0.3)
    assert peak[0] <= 3 * nn


# ------------------------------------------- component-major Lloyd and EM

def _same(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape \
        and got.tobytes() == want.tobytes()


def _matrix(n, d, kind, seed):
    """An (n, d) matrix: two blobs, wide-range normals, or a 0..2 grid.

    The grid repeats rows and puts points exactly halfway between others,
    so duplicate rows and tied distances are common.
    """
    rng = np.random.default_rng(seed)
    if kind == "grid":
        return rng.integers(0, 3, (n, d)).astype(np.float64)
    if kind == "blobs":
        return rng.normal(0.0, 0.1, (n, d)) + (np.arange(n) % 2)[:, None]
    return rng.normal(0.0, 1.0, (n, d)) * 10.0 ** rng.integers(-3, 4, d)


_KINDS = st.sampled_from(["grid", "blobs", "wide"])


@given(st.integers(1, 300), st.integers(1, 3),
       st.sampled_from(["wide", "zeros", "mixed"]), st.integers(0, 2**32 - 1))
@example(d=1, m=2, kind="zeros", seed=0)
@example(d=7, m=1, kind="wide", seed=1)
@example(d=8, m=2, kind="wide", seed=2)
@example(d=9, m=3, kind="mixed", seed=3)
@example(d=128, m=1, kind="zeros", seed=4)
@example(d=129, m=2, kind="wide", seed=5)
@example(d=300, m=1, kind="wide", seed=6)
@settings(max_examples=200, deadline=None)
def test_lane_sum_matches_add_reduce(d, m, kind, seed):
    """Lanes summed as np.add.reduce sums each contiguous length-d row.

    Magnitudes spread over 16 decades make any other association order
    show in the bits; all -0.0 lanes sum to +0.0 as numpy's do.
    """
    rng = np.random.default_rng(seed)
    rows = rng.normal(0.0, 1.0, (m, d)) * 10.0 ** rng.integers(-8, 9, (m, d))
    if kind == "zeros":
        rows = np.full((m, d), -0.0)
    elif kind == "mixed":
        rows[:, ::3] = -0.0
    want = np.add.reduce(rows, axis=1)
    assert _same(_lane_sum(rows.T), want)   # sums in place, over rows itself


def _gmm_init(mat, seed, explicit):
    if not explicit:
        return {"seed": seed}
    rng = np.random.default_rng(seed)
    d = mat.shape[1]
    return {"init_means": mat[rng.choice(len(mat), 2, replace=False)],
            "init_variances": None if seed % 3 == 0 else rng.uniform(0.01, 2.0, (2, d)),
            "init_weights": None if seed % 2 == 0 else [0.3, 0.7]}


@given(st.integers(4, 60), st.integers(1, 13), _KINDS, st.integers(0, 2**16),
       st.booleans())
@example(n=4, d=1, kind="blobs", seed=0, explicit=False)
@example(n=4, d=1, kind="blobs", seed=0, explicit=True)
@example(n=30, d=7, kind="wide", seed=1, explicit=False)
@example(n=30, d=8, kind="blobs", seed=2, explicit=True)
@example(n=30, d=9, kind="wide", seed=3, explicit=False)
@example(n=12, d=128, kind="blobs", seed=4, explicit=False)
@example(n=12, d=129, kind="blobs", seed=5, explicit=True)
@example(n=40, d=2, kind="grid", seed=6, explicit=False)     # duplicate rows
@example(n=8, d=3, kind="grid", seed=7, explicit=True)
@settings(max_examples=120, deadline=None)
def test_fit_gmm_matches_row_major_reference(n, d, kind, seed, explicit):
    """Weights, means, variances, history and labels equal to the bit."""
    mat = _matrix(n, d, kind, seed)
    init = _gmm_init(mat, seed, explicit)
    try:
        want = fit_gmm_reference(mat, **init)
    except FitError:
        with pytest.raises(FitError):
            fit_gmm(mat, **init)
        return
    model = fit_gmm(mat, **init)
    got = (model.weights, model.means, model.variances, model.loglik_history,
           model.train_assignments)
    for g, w in zip(got, want):
        assert _same(g, w)


def _failing_lane(mat, how):
    """A lane that raises FitError: all rows equal, or a lost component.

    The second component starts 1e9 away with variance 1e-4, so every
    responsibility for it underflows to 0.0 in the first E step.
    """
    n, d = mat.shape
    if how == "duplicate":
        return np.full((n, d), 0.25), {"seed": 0}
    return mat, {"init_means": [mat.mean(axis=0), np.full(d, 1e9)],
                 "init_variances": [np.ones(d), np.full(d, 1e-4)],
                 "init_weights": None}


@given(st.integers(4, 40), st.integers(1, 4), _KINDS,
       st.lists(st.tuples(st.integers(0, 2**16), st.booleans()),
                min_size=1, max_size=12),
       st.integers(1, 12), st.sampled_from([None, "duplicate", "lost"]))
@example(n=40, d=1, kind="wide", lanes=[(s, s % 3 == 0) for s in range(12)],
         max_iter=6, bad="lost")
@example(n=30, d=3, kind="blobs", lanes=[(s, s % 2 == 0) for s in range(9)],
         max_iter=3, bad="duplicate")
@example(n=8, d=2, kind="grid", lanes=[(s, False) for s in range(5)],
         max_iter=12, bad=None)
@settings(max_examples=60, deadline=None)
def test_gmm_lanes_match_reference_lane_by_lane(n, d, kind, lanes, max_iter, bad):
    """Same-shape lanes fitted in lockstep equal the row-major reference.

    Small caps make some lanes stop at max_iter (final M step taken) while
    others converge; a failing lane yields the FitError its one-lane fit
    raises and leaves every other lane's bytes unchanged.
    """
    mats, inits = [], []
    for seed, explicit in lanes:
        mats.append(_matrix(n, d, kind, seed))
        inits.append(_gmm_init(mats[-1], seed, explicit))
    if bad is not None:
        i = lanes[0][0] % len(mats)
        mats[i], inits[i] = _failing_lane(mats[i], bad)
    copies = [m.copy() for m in mats]
    got = _fit_gmm_lanes(mats, inits, max_iter=max_iter)
    assert all(_same(m, c) for m, c in zip(mats, copies))
    for mat, init, fit in zip(mats, inits, got):
        try:
            want = fit_gmm_reference(mat, max_iter=max_iter, **init)
        except FitError:
            with pytest.raises(FitError) as lone:
                fit_gmm(mat, max_iter=max_iter, **init)
            assert isinstance(fit, FitError) and str(fit) == str(lone.value)
            continue
        have = (fit.weights, fit.means, fit.variances, fit.loglik_history,
                fit.train_assignments)
        for g, w in zip(have, want):
            assert _same(g, w)


def test_gmm_lane_errors_hold_no_frames():
    """A failed lane's FitError has no traceback to keep its batch alive."""
    mats = [np.full((8, 1), 0.25), _matrix(8, 1, "blobs", 0)]
    gc.collect()
    gc.disable()
    try:
        fits = _fit_gmm_lanes(mats, [{"seed": 0}] * 2)
        assert isinstance(fits[0], FitError) and fits[0].__traceback__ is None
        assert gc.collect() == 0
    finally:
        gc.enable()


def _gmm_params(d, kind, seed):
    """(weights, means, variances); the grid kind often repeats a component."""
    rng = np.random.default_rng(seed)
    if kind == "grid":
        return (np.full(2, 0.5), rng.integers(0, 2, (1, d)).repeat(2, axis=0) * 1.0,
                rng.choice([0.5, 1.0], (2, d)))
    w = rng.uniform(0.1, 1.0)
    return (np.array([w, 1.0 - w]) if w < 1.0 else np.full(2, 0.5),
            rng.normal(0.0, 1.0, (2, d)), rng.uniform(1e-8, 2.0, (2, d)))


@given(st.integers(1, 200), st.integers(1, 13), _KINDS, st.integers(0, 2**16))
@example(n=1, d=1, kind="grid", seed=0)
@example(n=4, d=8, kind="wide", seed=1)
@example(n=50, d=129, kind="blobs", seed=2)
@settings(max_examples=100, deadline=None)
def test_gmm_log_responsibilities_match_reference(n, d, kind, seed):
    mat = _matrix(n, d, kind, seed)
    params = _gmm_params(d, kind, seed)
    log_resp, log_norm = _log_resp_rows(*params, mat)
    want = gmm_e_step_reference(*params, mat)
    assert _same(log_resp.T, want[0]) and float(log_norm.sum()) == want[1]


def _centroid_model(algorithm, params):
    w, mu, var = params
    d = mu.shape[1]
    state = ({"weights": w, "means": mu, "variances": var} if algorithm == "gmm"
             else {"centroids": mu})
    return ClusterModel(algorithm=algorithm, mu_k=np.zeros((2, d)),
                        sigma_k=np.zeros((2, d)), **state)


@pytest.mark.parametrize("algorithm", ["gmm", "kmeans", "birch", "centroid"])
@given(n=st.integers(1, 200), d=st.integers(1, 13), kind=_KINDS,
       seed=st.integers(0, 2**16))
@example(n=4, d=1, kind="grid", seed=0)
@example(n=9, d=9, kind="grid", seed=3)
@example(n=20, d=129, kind="wide", seed=4)
@settings(max_examples=60, deadline=None)
def test_assign_many_matches_row_major_reference(algorithm, n, d, kind, seed):
    """Hard labels as argmin distance / argmax responsibility (ties: 0)."""
    mat = _matrix(n, d, kind, seed)
    params = _gmm_params(d, kind, seed)
    model = _centroid_model(algorithm, params)
    want = (np.argmax(gmm_e_step_reference(*params, mat)[0], axis=1)
            if algorithm == "gmm" else nearest_reference(mat, params[1]))
    assert _same(assign_many(model, mat), want)


def test_two_component_ties_go_to_cluster_zero():
    mat = np.array([[1.0, 1.0], [0.0, 2.0], [3.0, -1.0]])
    cents = np.array([[0.0, 0.0], [2.0, 2.0]])        # every row is equidistant
    assert _same(_nearest(mat, cents), np.zeros(3, dtype=np.intp))
    same = (np.full(2, 0.5), np.ones((2, 2)), np.ones((2, 2)))
    model = _centroid_model("gmm", same)
    assert _same(assign_many(model, mat), np.zeros(3, dtype=np.intp))


@given(st.integers(2, 80), st.integers(1, 13), _KINDS, st.integers(0, 2**16))
@example(n=4, d=1, kind="blobs", seed=0)
@example(n=30, d=8, kind="wide", seed=1)
@example(n=30, d=9, kind="blobs", seed=2)
@example(n=12, d=128, kind="wide", seed=3)
@example(n=12, d=129, kind="blobs", seed=4)
@example(n=40, d=3, kind="grid", seed=5)          # duplicate rows, ties
@settings(max_examples=120, deadline=None)
def test_fit_kmeans_matches_row_major_reference(n, d, kind, seed):
    """fit_kmeans, and lloyd with BIRCH-style weights, equal to the bit."""
    mat = _matrix(n, d, kind, seed)
    try:
        want = fit_kmeans_reference(mat, seed)
    except FitError:
        with pytest.raises(FitError):
            fit_kmeans(mat, seed=seed)
        return
    model = fit_kmeans(mat, seed=seed)
    assert _same(model.centroids, want[0])
    assert _same(model.train_assignments, want[1])
    assert model.sse_history == want[2]
    weights = np.random.default_rng(seed).integers(1, 9, n).astype(np.float64)
    for g, w in zip(lloyd(mat, mat[[0, -1]], weights=weights),
                    lloyd_reference(mat, mat[[0, -1]], weights=weights)):
        assert _same(g, w)


# ------------------------------------------------- array-backed BIRCH tree

def _same_tree(node, ref):
    """Every node's (N, LS, SS) rows, and the shape below it, equal the
    reference tree's entries, to the bit."""
    assert (node.children is None) == ref.is_leaf
    assert node.n[:node.m].tolist() == [e.n for e in ref.entries]
    assert _same(node.ls[:node.m], np.stack([e.ls for e in ref.entries]))
    assert _same(node.ss[:node.m], np.stack([e.ss for e in ref.entries]))
    for child, e in zip(node.children or (), ref.entries):
        _same_tree(child, e.child)


@given(st.integers(2, 600), st.integers(1, 12), _KINDS, st.integers(2, 16),
       st.sampled_from([1e-4, 0.01, 0.05, 0.3, 2.0]), st.integers(0, 2**16))
@example(n=600, d=9, kind="blobs", branching=16, threshold=0.05, seed=0)
@example(n=300, d=1, kind="wide", branching=2, threshold=1e-4, seed=1)
@example(n=200, d=12, kind="grid", branching=3, threshold=0.01, seed=2)
@example(n=120, d=2, kind="grid", branching=2, threshold=2.0, seed=3)
@example(n=50, d=5, kind="wide", branching=16, threshold=2.0, seed=4)
@settings(max_examples=25, deadline=None)
def test_birch_matches_object_tree_reference(n, d, kind, branching, threshold, seed):
    """Every node's CF rows, the leaf (N, LS, SS) in leaf order and the
    fitted model equal to the bit.

    Small thresholds open an entry per distinct row, so small branching
    factors split leaves and inner nodes over and over; the grid repeats
    rows, which the tree absorbs at radius 0.
    """
    mat = _matrix(n, d, kind, seed)
    root = birch_tree_reference(mat, branching, threshold)
    tree = _Tree(branching, threshold, n, d)
    for x in mat:
        tree.insert(x)
    _same_tree(tree.root, root)
    want = birch_leaves_reference(root)
    counts, ls, ss = _leaf_features(mat, branching, threshold)
    assert counts.tolist() == [e[0] for e in want]
    assert _same(ls, np.stack([e[1] for e in want]))
    assert _same(ss, np.stack([e[2] for e in want]))
    try:
        ref = fit_birch_reference(mat, branching, threshold)
    except FitError as exc:
        with pytest.raises(FitError) as lone:
            fit_birch(mat, branching, threshold)
        assert str(lone.value) == str(exc)
        return
    model = fit_birch(mat, branching, threshold)
    got = (model.mu_k, model.sigma_k, model.centroids, model.train_assignments)
    for g, w in zip(got, ref[:4]):
        assert _same(g, w)
    assert model.sse_history == ref[4]
