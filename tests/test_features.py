import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from amsdetect import (FEATURE_NAMES, FeatureRow, InputError, NormalizationParams,
                       Waveform, WindowError, dataset_from_csv,
                       dataset_to_csv, extract_features, labels_array,
                       normalize_dataset, windowed_features)
from oracles import per_window_features, straight_line_fit


def test_feature_values_on_known_signal():
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    feats = extract_features(x)
    assert feats[0] == pytest.approx(3.0)
    assert feats[1] == pytest.approx(2.0)     # population variance
    assert feats[2] == pytest.approx(1.0)     # unit slope per sample


def test_slope_matches_reference_fit():
    rng = np.random.default_rng(0)
    x = 0.3 * np.arange(40) + rng.normal(0, 0.5, 40)
    got = extract_features(x, ("slope",))[0]
    assert got == pytest.approx(straight_line_fit(list(x)), rel=1e-12)


def test_selection_order_and_errors():
    x = np.arange(10.0)
    sel = extract_features(x, ("slope", "mean"))
    assert sel[0] == pytest.approx(1.0)
    assert sel[1] == pytest.approx(4.5)
    with pytest.raises(InputError):
        extract_features(x, ())
    with pytest.raises(InputError):
        extract_features(x, ("mean", "mean"))
    with pytest.raises(InputError):
        extract_features(x, ("median",))


def test_accepts_waveform_input():
    w = Waveform(np.arange(8.0), 1e-6)
    assert extract_features(w, ("mean",))[0] == pytest.approx(3.5)


finite_arrays = arrays(np.float64, st.integers(8, 64),
                       elements=st.floats(-100.0, 100.0))


@given(finite_arrays, st.floats(-50.0, 50.0))
@settings(max_examples=60, deadline=None)
def test_shift_moves_only_the_mean(x, c):
    base = extract_features(x)
    shifted = extract_features(x + c)
    assert shifted[0] == pytest.approx(base[0] + c, abs=1e-9)
    assert shifted[1] == pytest.approx(base[1], abs=1e-7)
    assert shifted[2] == pytest.approx(base[2], abs=1e-9)


@given(finite_arrays, st.floats(0.1, 10.0))
@settings(max_examples=60, deadline=None)
def test_scaling_laws(x, a):
    base = extract_features(x)
    scaled = extract_features(a * x)
    assert scaled[0] == pytest.approx(a * base[0], rel=1e-9, abs=1e-9)
    assert scaled[1] == pytest.approx(a * a * base[1], rel=1e-9, abs=1e-9)
    assert scaled[2] == pytest.approx(a * base[2], rel=1e-9, abs=1e-9)


def test_windowed_features_match_manual_slices():
    x = np.concatenate([np.full(50, 1.0), np.full(50, 3.0)])
    mat = windowed_features(x, 2)
    assert mat.shape == (2, 3)
    assert np.allclose(mat[0], extract_features(x[:50]))
    assert np.allclose(mat[1], extract_features(x[50:]))


def test_windowing_requires_even_split():
    x = np.arange(100.0)
    with pytest.raises(WindowError):
        windowed_features(x, 3)
    with pytest.raises(WindowError):
        windowed_features(x, 0)
    assert windowed_features(x, 1).shape == (1, 3)


@given(st.sampled_from([1, 2, 3, 5, 10, 20]), st.integers(2, 400),
       st.integers(0, 2**32 - 1), st.floats(-6, 3),
       st.permutations(FEATURE_NAMES), st.integers(1, 3))
@settings(max_examples=100, deadline=None)
def test_windowed_features_match_per_window_reference(k, width, seed, log_scale,
                                                      order, n_sel):
    """Byte-equal to featurizing each window alone, wide windows included."""
    rng = np.random.default_rng(seed)
    x = rng.normal(rng.normal(0, 10), 10.0 ** log_scale, k * width)
    sel = tuple(order[:n_sel])
    got = windowed_features(x, k, sel)
    assert got.tobytes() == per_window_features(x, k, sel).tobytes()
    assert extract_features(x, sel).tobytes() == \
        per_window_features(x, 1, sel)[0].tobytes()


def test_feature_row_validation():
    with pytest.raises(InputError):
        FeatureRow("a", 2, 0, np.array([1.0]))
    with pytest.raises(InputError):
        FeatureRow("a", 0, -1, np.array([1.0]))


def _rows():
    vals = [[0.0, 5.0], [1.0, 5.0], [2.0, 5.0], [4.0, 5.0]]
    return [FeatureRow(f"s{i}", i % 2, 0, np.array(v))
            for i, v in enumerate(vals)]


def test_normalization_maps_to_unit_interval():
    rows, params = normalize_dataset(_rows())
    mat = np.stack([r.values for r in rows])
    assert mat[:, 0].min() == 0.0
    assert mat[:, 0].max() == 1.0
    # constant dimension pins to the middle
    assert np.all(mat[:, 1] == 0.5)
    assert np.array_equal(labels_array(rows), [0, 1, 0, 1])


def test_normalization_params_reproduce_training_rows():
    raw = _rows()
    rows, params = normalize_dataset(raw)
    for r_raw, r_norm in zip(raw, rows):
        assert np.allclose(params.apply(r_raw.values), r_norm.values)
    # a whole matrix maps in one call, row for row
    mat = params.apply(np.stack([r.values for r in raw]))
    assert mat.tobytes() == np.stack([r.values for r in rows]).tobytes()
    # out-of-range values are not clamped
    out = params.apply(np.array([8.0, 5.0]))
    assert out[0] == pytest.approx(2.0)


def test_normalization_params_validation():
    with pytest.raises(InputError):
        NormalizationParams(np.zeros(2), np.zeros(3))
    p = NormalizationParams(np.zeros(2), np.ones(2))
    with pytest.raises(InputError):
        p.apply(np.zeros(3))


def test_dataset_csv_round_trip(tmp_path):
    rows = [FeatureRow("b", 1, 1, np.array([0.25, -1.5])),
            FeatureRow("a", 0, 0, np.array([1.0, 2.0])),
            FeatureRow("b", 1, 0, np.array([0.5, 0.125]))]
    path = tmp_path / "d.csv"
    dataset_to_csv(rows, ["mean", "slope"], path)
    names, back = dataset_from_csv(path)
    assert names == ["mean", "slope"]
    # rows come back sorted by (sample_id, window_index)
    assert [(r.sample_id, r.window_index) for r in back] == [
        ("a", 0), ("b", 0), ("b", 1)]
    assert back[2].label == 1
    assert np.allclose(back[1].values, [0.5, 0.125])


def test_dataset_csv_rejects_mismatched_names(tmp_path):
    rows = [FeatureRow("a", 0, 0, np.array([1.0, 2.0]))]
    with pytest.raises(InputError):
        dataset_to_csv(rows, ["only-one"], tmp_path / "x.csv")
    with pytest.raises(InputError):
        dataset_to_csv([], None, tmp_path / "x.csv")
