import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from amsdetect import (InputError, assign_many, detect_windowed,
                       detections_to_csv, fit_kmeans, latency_report,
                       scan_windows)

# a 1-D model whose clusters sit at 0.1 (normal) and 0.9 (anomalous)
_TRAIN = np.array([0.08, 0.1, 0.12, 0.88, 0.9, 0.92])[:, None]


def _model():
    return fit_kmeans(_TRAIN, seed=0)


def test_detects_at_first_anomalous_window():
    model = _model()
    for j in range(5):
        feats = np.full((5, 1), 0.1)
        feats[j] = 0.9
        res = detect_windowed(model, feats, samples_per_window=300,
                              sample_period=2e-8, anomalous_cluster=1)
        assert res.first_anomalous_window == j
        assert res.windows_consumed == j + 1
        assert res.latency_seconds == pytest.approx((j + 1) * 300 * 2e-8)
        assert res.speedup == pytest.approx(5.0 / (j + 1))
        assert res.anomalous


def test_clean_signal_consumes_every_window():
    res = detect_windowed(_model(), np.full((5, 1), 0.1), 300, 2e-8)
    assert res.first_anomalous_window is None
    assert not res.anomalous
    assert res.windows_consumed == 5
    assert res.speedup == 1.0


def test_early_stop_equivalence():
    feats = np.full((6, 1), 0.1)
    feats[2] = 0.9
    feats[4] = 0.9
    model = _model()
    eager = detect_windowed(model, feats, 100, 1e-8)
    lazy = scan_windows(assign_many(model, feats)[None], 100, 1e-8,
                        model.anomalous_cluster, stop_early=False)[0]
    assert eager.first_anomalous_window == lazy.first_anomalous_window == 2
    assert eager.windows_consumed == 3
    assert lazy.windows_consumed == 6


def test_headline_latency_numbers_are_exact():
    """First-window detection on the default grid: 4 us latency, 5x speedup."""
    feats = np.full((5, 1), 0.1)
    feats[0] = 0.9
    dt = 20e-6 / 1500
    res = detect_windowed(_model(), feats, 300, dt)
    assert res.latency_seconds == 4e-6       # exact in binary floating point
    assert res.speedup == 5.0


def test_detect_input_validation():
    model = _model()
    with pytest.raises(InputError):
        detect_windowed(model, np.empty((0, 1)), 300, 1e-8)
    with pytest.raises(InputError):
        detect_windowed(model, np.full((5, 1), 0.1), 0, 1e-8)
    for period in (0.0, -1e-8, math.nan, math.inf, -math.inf):
        with pytest.raises(InputError, match="sample_period"):
            detect_windowed(model, np.full((5, 1), 0.1), 300, period)
    with pytest.raises(InputError):
        detect_windowed(model, np.full((5, 1), 0.1), 300, 1e-8,
                        anomalous_cluster=7)


def test_latency_report_aggregates():
    model = _model()
    hot = np.full((5, 1), 0.1)
    hot[0] = 0.9
    cold = np.full((5, 1), 0.1)
    r1, r2 = scan_windows(np.stack([assign_many(model, hot), assign_many(model, cold)]),
                          300, 1e-8, model.anomalous_cluster, sample_ids=["hot", "cold"])
    rep = latency_report([r1, r2])
    assert rep["n_signals"] == 2
    assert rep["n_detected"] == 1
    assert rep["detect_rate"] == 0.5
    assert rep["mean_speedup"] == pytest.approx((5.0 + 1.0) / 2)
    assert rep["mean_latency_s"] == pytest.approx(300 * 1e-8)
    none_rep = latency_report([r2])
    assert none_rep["mean_latency_s"] is None
    with pytest.raises(InputError):
        latency_report([])


def test_detections_csv(tmp_path):
    model = _model()
    hot = np.full((4, 1), 0.1)
    hot[1] = 0.9
    res = scan_windows(assign_many(model, hot)[None], 250, 1e-8,
                       model.anomalous_cluster, sample_ids=["sig-7"])[0]
    path = tmp_path / "det.csv"
    detections_to_csv([res], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "sample_id,first_window,m,latency_s,speedup"
    assert lines[1].startswith("sig-7,1,2,")


def _fields(result):
    """Every field with its exact Python type, element types included."""
    return [(name, type(value), value,
             [type(x) for x in value] if isinstance(value, list) else None)
            for name, value in dataclasses.asdict(result).items()]


@given(asg=arrays(np.int64, st.tuples(st.integers(0, 6), st.integers(1, 12)),
                  elements=st.integers(0, 1)),
       stop_early=st.booleans(), bad=st.integers(0, 1),
       samples_per_window=st.integers(1, 1000),
       sample_period=st.floats(1e-12, 1.0))
@settings(max_examples=200, deadline=None)
def test_scan_matches_per_signal_detection(asg, stop_early, bad,
                                           samples_per_window, sample_period):
    """Scanning a population's assignments gives, signal by signal, what
    assigning and scanning each signal on its own gives."""
    model = _model()
    ids = [f"s{i}" for i in range(asg.shape[0])]
    got = scan_windows(asg, samples_per_window, sample_period, bad,
                       stop_early=stop_early, sample_ids=ids)
    # 0.1 lands in cluster 0 and 0.9 in cluster 1
    want = [scan_windows(assign_many(model, np.where(row == 1, 0.9, 0.1)[:, None])[None],
                         samples_per_window, sample_period, bad,
                         stop_early=stop_early, sample_ids=[sid])[0]
            for sid, row in zip(ids, asg)]
    assert [_fields(r) for r in got] == [_fields(r) for r in want]
    for r, row in zip(got, asg):
        hits = np.flatnonzero(row == bad)
        first = int(hits[0]) if hits.size else None
        m = first + 1 if stop_early and first is not None else row.size
        assert r.first_anomalous_window == first
        assert r.windows_consumed == m
        assert r.latency_seconds == m * samples_per_window * sample_period
        assert r.speedup == row.size / m


def test_scan_input_validation():
    asg = np.zeros((3, 4), dtype=np.int64)
    for bad in (np.zeros(4, dtype=np.int64), np.zeros((3, 0), dtype=np.int64),
                asg.astype(np.float64)):
        with pytest.raises(InputError, match="assignments"):
            scan_windows(bad, 300, 1e-8, 1)
    with pytest.raises(InputError, match="samples_per_window"):
        scan_windows(asg, 0, 1e-8, 1)
    for period in (0.0, math.nan, math.inf):
        with pytest.raises(InputError, match="sample_period"):
            scan_windows(asg, 300, period, 1)
    with pytest.raises(InputError, match="sample ids"):
        scan_windows(asg, 300, 1e-8, 1, sample_ids=["a", "b"])
    assert [r.sample_id for r in scan_windows(asg, 300, 1e-8, 1)] == [""] * 3
    assert scan_windows(asg[:0], 300, 1e-8, 1) == []
