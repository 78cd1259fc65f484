"""Acceptance gate: nine go/no-go checks over the whole pipeline.

Each test prints exactly one ``[criterion N] PASS|FAIL`` line with capture
suspended, so the verdicts survive in any test log, then asserts.  Budgets
are wall-clock upper bounds measured around the check body.
"""

import time

import numpy as np
import pytest

from amsdetect import (ExperimentConfig, PointRandom, VrefConfig,
                       assign_many, detect_windowed, evaluate, fit_birch,
                       fit_gmm, fit_kmeans, fit_spectral, generate_dataset,
                       inject_points, permutation_accuracy,
                       refine_model, run_suite, select_centroids,
                       simulate_vref, suite_to_csv)
from amsdetect.cluster import canonical_labels, lloyd
from amsdetect.cluster.birch import _Node
from amsdetect.cluster.spectral import spectral_embedding
from amsdetect.features import dataset_to_csv
from oracles import exhaustive_two_means, selection_trace


@pytest.fixture
def verdict(capfd):
    def emit(num, ok, detail):
        mark = "PASS" if ok else "FAIL"
        with capfd.disabled():
            print(f"\n[criterion {num}] {mark} - {detail}", flush=True)
        assert ok, f"criterion {num}: {detail}"

    return emit


def _accuracy(labels, model, mat):
    return permutation_accuracy(labels, assign_many(model, mat))[0]


def test_c1_kmeans_matches_exhaustive_optimum(verdict, tiny_sets):
    t0 = time.perf_counter()
    ok = True
    for pts in tiny_sets:
        arr = np.asarray(pts)[:, None]
        want_sse, want_labels = exhaustive_two_means(pts)
        init = np.array([[min(pts)], [max(pts)]])
        _, labels, history = lloyd(arr, init)
        got_sse = history[-1]
        ok &= abs(got_sse - want_sse) <= 1e-12 * max(want_sse, 1.0)
        ok &= np.array_equal(canonical_labels(arr, labels)[0], want_labels)
    dt = time.perf_counter() - t0
    ok &= dt < 10.0
    verdict(1, ok, f"exact optimum on {len(tiny_sets)} small sets "
                    f"({dt:.2f}s < 10s)")


def test_c2_iteration_invariants(verdict, blobs_2d):
    mat, _ = blobs_2d
    km = fit_kmeans(mat, seed=0)
    sse = np.asarray(km.sse_history)
    sse_ok = bool(np.all(np.diff(sse) <= 0.0))

    gm = fit_gmm(mat, seed=0)
    ll = np.asarray(gm.loglik_history)
    ll_ok = bool(np.all(np.diff(ll) >= -1e-9))

    rng = np.random.default_rng(5)
    pts = rng.integers(-50, 50, size=(40, 3)).astype(np.float64)
    node = _Node(3, 3, leaf=True)               # whole, left, right
    for k in (0, 0, 20):
        node.insert(node.m, 1, pts[k], pts[k] * pts[k])
    for entry, points in ((0, pts[1:]), (1, pts[1:20]), (2, pts[21:])):
        for p in points:
            node.add_point(entry, p, p * p)
    halves = _Node(2, 3, leaf=True)
    for k in (1, 2):
        halves.insert(halves.m, node.n[k], node.ls[k], node.ss[k])
    n, ls, ss = halves.total()
    cf_ok = (n == node.n[0]
             and np.array_equal(ls, node.ls[0])
             and np.array_equal(ss, node.ss[0]))

    eigvals, vecs = spectral_embedding(mat, sigma=0.3)
    spec_ok = (abs(eigvals[0]) <= 1e-8
               and bool(np.all(np.diff(eigvals) >= -1e-12))
               and np.allclose(vecs.T @ vecs, np.eye(2), atol=1e-8))

    ok = sse_ok and ll_ok and cf_ok and spec_ok
    verdict(2, ok, f"kmeans SSE monotone={sse_ok}, gmm loglik "
                    f"monotone={ll_ok}, feature-summary additivity exact="
                    f"{cf_ok}, embedding orthonormal={spec_ok}")


def test_c3_all_algorithms_separate_clean_blobs(verdict, blobs_2d):
    t0 = time.perf_counter()
    mat, labels = blobs_2d
    accs = {
        "kmeans": _accuracy(labels, fit_kmeans(mat, seed=0), mat),
        "gmm": _accuracy(labels, fit_gmm(mat, seed=0), mat),
        "birch": _accuracy(labels, fit_birch(mat), mat),
        "spectral": _accuracy(labels, fit_spectral(mat, sigma=0.3, seed=0),
                              mat),
    }
    dt = time.perf_counter() - t0
    ok = all(a == 1.0 for a in accs.values()) and dt < 30.0
    verdict(3, ok, f"accuracies {accs} ({dt:.2f}s < 30s)")


def test_c4_selection_traces_match_reference(verdict):
    fixtures = [
        ([0.42, 0.44, 0.46, 0.48, 0.50, 0.50, 0.52, 0.54, 0.56, 0.58],
         [0.2, 0.8], [0.05, 0.05], "global"),
        ([0.05, 0.1, 0.15, 0.2, 0.25, 0.75, 0.8, 0.85, 0.9, 0.95],
         [0.15, 0.85],
         [0.07071067811865475, 0.07071067811865475], "global"),
        ([0.30, 0.38, 0.40, 0.42, 0.44, 0.46, 0.50, 0.54, 0.88, 0.92],
         [0.35, 0.90], [0.06, 0.02], "cluster"),
        ([0.30, 0.38, 0.40, 0.42, 0.44, 0.46, 0.54, 0.56, 0.88, 0.92],
         [0.35, 0.90], [0.06, 0.02], "cluster"),
    ]
    ok = True
    for x, mu_k, sigma_k, scope in fixtures:
        want = selection_trace(x, mu_k, sigma_k, sigma_scope=scope)
        pair = select_centroids(x, mu_k, sigma_k, sigma_scope=scope)
        ok &= abs(pair.low - want["low"]) <= 1e-12
        ok &= abs(pair.high - want["high"]) <= 1e-12
        ok &= (pair.m_l, pair.m_g) == (want["m_l"], want["m_g"])
        ok &= (pair.low_fallback, pair.high_fallback) == \
            (want["low_fallback"], want["high_fallback"])
    verdict(4, ok, f"interval selection equals the reference trace on "
                    f"{len(fixtures)} ten-point sets")


def test_c5_refinement_never_hurts_on_average(verdict, overlap_1d):
    t0 = time.perf_counter()
    base, refined = [], []
    for seed in range(20):
        mat, labels = overlap_1d(seed)
        gm = fit_gmm(mat, seed=seed)
        base.append(_accuracy(labels, gm, mat))
        refined.append(_accuracy(labels, refine_model(gm, mat), mat))
    boost = float(np.mean(refined) - np.mean(base))
    dt = time.perf_counter() - t0
    ok = boost >= 0.0 and dt < 60.0
    verdict(5, ok, f"mean accuracy {np.mean(base):.4f} -> "
                    f"{np.mean(refined):.4f} over 20 seeds "
                    f"(boost {boost:+.4f} >= 0, {dt:.1f}s < 60s)")


def test_c6_early_detection_latency_arithmetic(verdict):
    train = np.array([0.08, 0.10, 0.12, 0.88, 0.90, 0.92])[:, None]
    model = fit_kmeans(train, seed=0)
    dt = 20.0e-6 / 1500.0                       # 1500 samples over 20 us
    windows = np.array([0.9, 0.1, 0.1, 0.1, 0.1])[:, None]
    res = detect_windowed(model, windows, samples_per_window=300,
                          sample_period=dt)
    ok = (res.first_anomalous_window == 0
          and res.latency_seconds == 4.0e-6     # exact in float64
          and res.speedup == 5.0)
    # consuming m of k windows always scales the speedup to k/m
    for m in range(1, 6):
        w = np.full((5, 1), 0.1)
        w[m - 1, 0] = 0.9
        r = detect_windowed(model, w, 300, dt)
        ok &= r.windows_consumed == m
        ok &= r.latency_seconds == m * 300 * dt
        ok &= r.speedup == 5.0 / m
    verdict(6, ok, "first-window hit costs 4.0e-06s of signal, "
                    "5.0x fewer samples than full scan")


def test_c7_random_injection_contract(verdict):
    sig = simulate_vref(VrefConfig(), n_samples=1500, seed=2)["input"]
    injected, record = inject_points(sig, PointRandom(0.5, 2.0, 5.0), 11)
    peak = np.abs(sig.samples).max()
    pos = np.asarray(record.positions)
    mask = np.zeros(len(sig), dtype=bool)
    mask[pos] = True
    mags = np.abs(injected.samples[pos]) / peak
    ok = (pos.size == 8                          # 0.5% of 1500, half-up
          and bool(np.all((mags >= 2.0) & (mags <= 5.0)))
          and bool(np.all(np.sign(injected.samples[pos])
                          == np.sign(sig.samples[pos])))
          and np.array_equal(injected.samples[~mask], sig.samples[~mask]))
    verdict(7, ok, f"0.5% of 1500 -> {pos.size} spikes in [2,5]x peak, "
                    "untouched elsewhere")


def test_c8_accuracy_grows_with_chain_depth(verdict):
    t0 = time.perf_counter()
    best = []
    for k in (1, 2, 3):
        cfg = ExperimentConfig(experiment="KStage", algorithm="gmm",
                               kstage_k=k, stim_amplitude=0.05,
                               measurement_noise=0.15,
                               n_samples_per_class=50, seed=0)
        best.append(evaluate(cfg).best.accuracy_pct)
    dt = time.perf_counter() - t0
    ok = all(b >= a for a, b in zip(best, best[1:]))
    verdict(8, ok, f"best accuracy over stage count 1..3: {best} "
                    f"non-decreasing ({dt:.1f}s)")


def test_c9_end_to_end_reproducibility(verdict, tmp_path):
    t0 = time.perf_counter()
    configs = [
        ExperimentConfig(experiment="IA", algorithm="kmeans",
                         n_samples_per_class=10, n_samples=300, seed=4),
        ExperimentConfig(experiment="PPA", algorithm="gmm", window_k=5,
                         n_samples_per_class=10, n_samples=300, seed=4),
        ExperimentConfig(experiment="OmBoth", algorithm="birch",
                         n_samples_per_class=10, n_samples=200, seed=4),
        ExperimentConfig(experiment="KStage", algorithm="gmm", kstage_k=2,
                         stim_amplitude=0.1, n_samples_per_class=10,
                         n_samples=200, seed=4),
    ]
    p1, p2 = tmp_path / "one.csv", tmp_path / "two.csv"
    suite_to_csv(run_suite(configs), p1)
    suite_to_csv(run_suite(configs), p2)
    suite_ok = p1.read_bytes() == p2.read_bytes()

    d1, d2 = tmp_path / "d1.csv", tmp_path / "d2.csv"
    dataset_to_csv(generate_dataset(configs[0]), None, d1)
    dataset_to_csv(generate_dataset(configs[0]), None, d2)
    data_ok = d1.read_bytes() == d2.read_bytes()

    dt = time.perf_counter() - t0
    ok = suite_ok and data_ok and dt < 300.0
    verdict(9, ok, f"suite summary byte-identical={suite_ok}, dataset "
                    f"byte-identical={data_ok} ({dt:.1f}s < 300s)")
