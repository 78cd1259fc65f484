import numpy as np
import pytest

from amsdetect import (CentroidPair, ConfigurationError, DegenerateDataError,
                       InputError, RefitError, assign_many, fit_kmeans,
                       refine_model, select_centroids)
from amsdetect.centroid import _refit, _select_pairs
from oracles import selection_trace

# Ten-point fixtures covering the four interval geometries.  mu_k/sigma_k
# are explicit inputs: the selector never checks them against the data, so
# traces can exercise paths a balanced two-cluster fit would rarely reach.
F1 = ([0.42, 0.44, 0.46, 0.48, 0.50, 0.50, 0.52, 0.54, 0.56, 0.58],
      [0.2, 0.8], [0.05, 0.05], "global")
F2 = ([0.05, 0.1, 0.15, 0.2, 0.25, 0.75, 0.8, 0.85, 0.9, 0.95],
      [0.15, 0.85],
      [0.07071067811865475, 0.07071067811865475], "global")
F3 = ([0.30, 0.38, 0.40, 0.42, 0.44, 0.46, 0.50, 0.54, 0.88, 0.92],
      [0.35, 0.90], [0.06, 0.02], "cluster")
F4 = ([0.30, 0.38, 0.40, 0.42, 0.44, 0.46, 0.54, 0.56, 0.88, 0.92],
      [0.35, 0.90], [0.06, 0.02], "cluster")


@pytest.mark.parametrize("x,mu_k,sigma_k,scope", [F1, F2, F3, F4])
def test_selection_matches_reference_trace(x, mu_k, sigma_k, scope):
    want = selection_trace(x, mu_k, sigma_k, sigma_scope=scope)
    pair = select_centroids(x, mu_k, sigma_k, sigma_scope=scope)
    assert pair.low == pytest.approx(want["low"], rel=1e-12)
    assert pair.high == pytest.approx(want["high"], rel=1e-12)
    assert pair.m_l == want["m_l"]
    assert pair.m_g == want["m_g"]
    assert pair.low_fallback == want["low_fallback"]
    assert pair.high_fallback == want["high_fallback"]


def test_selection_frozen_values():
    p1 = select_centroids(*F1[:3])
    assert p1.low == pytest.approx(0.4666666666666666)
    assert p1.high == pytest.approx(0.5333333333333333)
    assert (p1.m_l, p1.m_g) == (3, 3)
    assert not p1.low_fallback and not p1.high_fallback

    p2 = select_centroids(*F2[:3])
    assert (p2.low, p2.high) == (0.15, 0.85)
    assert p2.low_fallback and p2.high_fallback

    p3 = select_centroids(*F3[:3], sigma_scope="cluster")
    assert p3.low == pytest.approx(0.5)
    assert p3.high == pytest.approx(0.54)
    assert (p3.m_l, p3.m_g) == (1, 2)

    p4 = select_centroids(*F4[:3], sigma_scope="cluster")
    assert p4.low_fallback and not p4.high_fallback
    assert p4.low == pytest.approx(0.35)
    assert p4.high == pytest.approx(0.55)


def test_selection_mirror_symmetry():
    x, mu_k, sigma_k, _ = F1
    fwd = select_centroids(x, mu_k, sigma_k)
    mirrored = select_centroids([1.0 - v for v in x],
                                [1.0 - mu_k[1], 1.0 - mu_k[0]],
                                [sigma_k[1], sigma_k[0]])
    assert mirrored.low == pytest.approx(1.0 - fwd.high, rel=1e-12)
    assert mirrored.high == pytest.approx(1.0 - fwd.low, rel=1e-12)
    assert (mirrored.m_l, mirrored.m_g) == (fwd.m_g, fwd.m_l)


def test_selection_rejects_one_sided_clusters():
    x = [0.05, 0.06, 0.07, 0.08, 0.09, 0.10, 0.11, 0.12, 0.95, 1.0]
    with pytest.raises(DegenerateDataError):
        select_centroids(x, [0.07, 0.11], [0.02, 0.01])


def test_selection_input_validation():
    x = [0.1, 0.5, 0.9]
    with pytest.raises(ConfigurationError):
        select_centroids(x, [0.2, 0.8], [0.1, 0.1], sigma_scope="both")
    with pytest.raises(InputError):
        select_centroids([0.1, 1.7], [0.2, 0.8], [0.1, 0.1])
    with pytest.raises(InputError):
        select_centroids(x, [0.8, 0.2], [0.1, 0.1])      # not canonical
    with pytest.raises(InputError):
        select_centroids(x, [0.2, 0.8], [-0.1, 0.1])


def test_sigma_scope_changes_the_interval():
    x, mu_k, sigma_k, _ = F3
    by_cluster = select_centroids(x, mu_k, sigma_k, sigma_scope="cluster")
    by_global = select_centroids(x, mu_k, sigma_k, sigma_scope="global")
    assert not by_cluster.high_fallback
    assert by_global.high_fallback          # global sigma overshoots the mean
    assert by_cluster.high != by_global.high


def test_centroid_pair_validation():
    with pytest.raises(InputError):
        CentroidPair(0.8, 0.2)
    with pytest.raises(InputError):
        CentroidPair(0.2, 0.8, m_l=5)


def test_multi_runs_per_dimension_with_fallback():
    n = 10
    dim0 = np.array(F1[0])
    dim1 = np.array([0.05, 0.06, 0.07, 0.08, 0.09, 0.10, 0.11, 0.12, 0.95, 1.0])
    mat = np.stack([dim0, dim1], axis=1)
    mu_k = np.array([[0.2, 0.07], [0.8, 0.11]])
    sigma_k = np.array([[0.05, 0.02], [0.05, 0.01]])
    pairs = _select_pairs(mat, mu_k, sigma_k, "global")
    assert len(pairs) == 2
    assert not pairs[0].low_fallback          # F1 geometry fires
    # dim 1 is degenerate -> silent fallback to the supplied means
    assert pairs[1].low_fallback and pairs[1].high_fallback
    assert (pairs[1].low, pairs[1].high) == (0.07, 0.11)


def test_refit_assigns_nearest_centroid():
    rows = np.array([0.0, 0.3, 0.45, 0.55, 0.7, 1.0])[:, None]
    model = _refit(rows, [CentroidPair(0.4, 0.6)])
    assert model.algorithm == "centroid"
    assert np.array_equal(assign_many(model, rows), [0, 0, 0, 1, 1, 1])
    with pytest.raises(RefitError):
        _refit(rows, [CentroidPair(0.5, 0.5)])


def test_refit_nd_validation():
    with pytest.raises(RefitError):
        _refit(np.zeros((4, 2)), [CentroidPair(0.5, 0.5), CentroidPair(0.2, 0.2)])


def test_refine_model_keeps_separation(blobs_2d):
    mat, labels = blobs_2d
    base = fit_kmeans(mat, seed=0)
    refined = refine_model(base, mat)
    got = assign_many(refined, mat)
    acc = max(np.mean(got == labels), np.mean(got != labels))
    assert acc == 1.0
    assert refined.centroid_pairs is not None
    assert len(refined.centroid_pairs) == 2


def test_multi_handles_anti_correlated_dimension():
    # canonical order fixes dim 0 only; dim 1 runs the other way and must
    # be re-oriented locally instead of tripping the canonical-order check
    rng = np.random.default_rng(3)
    lo = rng.normal([0.1, 0.9], 0.02, (30, 2))
    hi = rng.normal([0.9, 0.1], 0.02, (30, 2))
    mat = np.concatenate([lo, hi])
    mu_k = np.stack([lo.mean(axis=0), hi.mean(axis=0)])
    sigma_k = np.stack([lo.std(axis=0), hi.std(axis=0)])
    pairs = _select_pairs(mat, mu_k, sigma_k, "global")
    assert len(pairs) == 2
    for p in pairs:
        assert p.low <= p.high
