import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from amsdetect import (FEATURE_NAMES, ConfigurationError, Dataset, InputError,
                       NormalizationParams, Waveform, WindowError, dataset_from_csv,
                       dataset_to_csv, labels_array, normalize_dataset,
                       windowed_features)
from amsdetect.features import _windowed_rows
from oracles import per_window_features, straight_line_fit


def test_feature_values_on_known_signal():
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    feats = windowed_features(Waveform(x, 1.0), 1)[0]
    assert feats[0] == pytest.approx(3.0)
    assert feats[1] == pytest.approx(2.0)     # population variance
    assert feats[2] == pytest.approx(1.0)     # unit slope per sample


def test_slope_matches_reference_fit():
    rng = np.random.default_rng(0)
    x = 0.3 * np.arange(40) + rng.normal(0, 0.5, 40)
    got = windowed_features(Waveform(x, 1.0), 1, ("slope",))[0][0]
    assert got == pytest.approx(straight_line_fit(list(x)), rel=1e-12)


def test_selection_order_and_errors():
    x = np.arange(10.0)
    sel = windowed_features(Waveform(x, 1.0), 1, ("slope", "mean"))[0]
    assert sel[0] == pytest.approx(1.0)
    assert sel[1] == pytest.approx(4.5)
    with pytest.raises(ConfigurationError):
        windowed_features(Waveform(x, 1.0), 1, ())
    with pytest.raises(ConfigurationError):
        windowed_features(Waveform(x, 1.0), 1, ("mean", "mean"))
    with pytest.raises(ConfigurationError):
        windowed_features(Waveform(x, 1.0), 1, ("median",))


def test_accepts_waveform_input():
    w = Waveform(np.arange(8.0), 1e-6)
    assert windowed_features(w, 1, ("mean",))[0][0] == pytest.approx(3.5)


finite_arrays = arrays(np.float64, st.integers(8, 64),
                       elements=st.floats(-100.0, 100.0))


@given(finite_arrays, st.floats(-50.0, 50.0))
@settings(max_examples=60, deadline=None)
def test_shift_moves_only_the_mean(x, c):
    base = windowed_features(Waveform(x, 1.0), 1)[0]
    shifted = windowed_features(Waveform(x + c, 1.0), 1)[0]
    assert shifted[0] == pytest.approx(base[0] + c, abs=1e-9)
    assert shifted[1] == pytest.approx(base[1], abs=1e-7)
    assert shifted[2] == pytest.approx(base[2], abs=1e-9)


@given(finite_arrays, st.floats(0.1, 10.0))
@settings(max_examples=60, deadline=None)
def test_scaling_laws(x, a):
    base = windowed_features(Waveform(x, 1.0), 1)[0]
    scaled = windowed_features(Waveform(a * x, 1.0), 1)[0]
    assert scaled[0] == pytest.approx(a * base[0], rel=1e-9, abs=1e-9)
    assert scaled[1] == pytest.approx(a * a * base[1], rel=1e-9, abs=1e-9)
    assert scaled[2] == pytest.approx(a * base[2], rel=1e-9, abs=1e-9)


def test_windowed_features_match_manual_slices():
    x = np.concatenate([np.full(50, 1.0), np.full(50, 3.0)])
    mat = windowed_features(Waveform(x, 1.0), 2)
    assert mat.shape == (2, 3)
    assert np.allclose(mat[0], windowed_features(Waveform(x[:50], 1.0), 1)[0])
    assert np.allclose(mat[1], windowed_features(Waveform(x[50:], 1.0), 1)[0])


def test_windowing_requires_even_split():
    x = np.arange(100.0)
    with pytest.raises(WindowError):
        windowed_features(Waveform(x, 1.0), 3)
    with pytest.raises(WindowError):
        windowed_features(Waveform(x, 1.0), 0)
    assert windowed_features(Waveform(x, 1.0), 1).shape == (1, 3)


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
    got = windowed_features(Waveform(x, 1.0), k, sel)
    assert got.tobytes() == per_window_features(x, k, sel).tobytes()
    assert windowed_features(Waveform(x, 1.0), 1, sel)[0].tobytes() == \
        per_window_features(x, 1, sel)[0].tobytes()


@given(st.integers(1, 16), st.sampled_from([1, 2, 3, 5, 10, 20]), st.integers(2, 200),
       st.integers(0, 2**32 - 1), st.floats(-6, 3), st.floats(-3, 6),
       st.permutations(FEATURE_NAMES), st.integers(1, 3))
@settings(max_examples=100, deadline=None)
def test_windowed_rows_match_per_window_reference(rows, k, width, seed, log_scale,
                                                  log_offset, order, n_sel):
    """Many rows at once, the shape the population walk featurizes: each
    row byte-equal to featurizing its windows alone."""
    rng = np.random.default_rng(seed)
    # each row its own offset, up to 1e6
    offsets = rng.uniform(-1.0, 1.0, (rows, 1)) * 10.0 ** log_offset
    x = rng.normal(offsets, 10.0 ** log_scale, (rows, k * width))
    sel = tuple(order[:n_sel])
    got = _windowed_rows(x, k, sel)
    assert got.shape == (rows, k, n_sel)
    for g, row in zip(got, x):
        assert g.tobytes() == per_window_features(row, k, sel).tobytes()


def test_dataset_validation():
    ok = (["a", "b"], [0, 1], [0, 0], [[1.0], [2.0]])
    ds = Dataset(*ok)
    assert len(ds) == 2 and ds.sample_ids == ("a", "b")
    assert np.asarray(ds).tobytes() == np.array([[1.0], [2.0]]).tobytes()
    with pytest.raises(ValueError):
        ds.values[0, 0] = 9.0                      # the columns are read-only
    shape = "a dataset needs one or more rows"
    for i, bad, message in [
            (1, [2, 1], "label must be 0 or 1"),
            (2, [0, -1], "window_index must be >= 0"),
            (1, [0.0, 1.0], "labels and window indices must be integers"),
            (2, [0.5, 1], "labels and window indices must be integers"),
            (3, [1.0, 2.0], shape),
            (3, [[1.0]], shape),
            (1, [[0], [1]], shape),
            (0, ["a"], shape)]:
        args = list(ok)
        args[i] = bad
        with pytest.raises(InputError, match=message):
            Dataset(*args)
    with pytest.raises(InputError, match=shape):
        Dataset([], [], [], np.empty((0, 1)))


def _rows():
    vals = [[0.0, 5.0], [1.0, 5.0], [2.0, 5.0], [4.0, 5.0]]
    return Dataset([f"s{i}" for i in range(4)], [i % 2 for i in range(4)],
                   [0] * 4, vals)


def test_normalization_maps_to_unit_interval():
    rows, params = normalize_dataset(_rows())
    mat = rows.values
    assert mat[:, 0].min() == 0.0
    assert mat[:, 0].max() == 1.0
    # constant dimension pins to the middle
    assert np.all(mat[:, 1] == 0.5)
    assert np.array_equal(labels_array(rows), [0, 1, 0, 1])


def test_normalization_params_reproduce_training_rows():
    raw = _rows()
    rows, params = normalize_dataset(raw)
    assert rows.sample_ids == raw.sample_ids
    assert np.array_equal(rows.labels, raw.labels)
    for r_raw, r_norm in zip(raw.values, rows.values):
        assert params.apply(r_raw).tobytes() == r_norm.tobytes()
    # a whole matrix maps in one call, row for row
    assert params.apply(raw.values).tobytes() == rows.values.tobytes()
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
    rows = Dataset(["b", "a", "b"], [1, 0, 1], [1, 0, 0],
                   [[0.25, -1.5], [1.0, 2.0], [0.5, 0.125]])
    path = tmp_path / "d.csv"
    dataset_to_csv(rows, ["mean", "slope"], path)
    names, back = dataset_from_csv(path)
    assert names == ["mean", "slope"]
    # rows come back sorted by (sample_id, window_index)
    assert list(zip(back.sample_ids, back.windows.tolist())) == [
        ("a", 0), ("b", 0), ("b", 1)]
    assert back.labels.tolist() == [0, 1, 1]
    assert back.values.tolist() == [[1.0, 2.0], [0.5, 0.125], [0.25, -1.5]]


def test_dataset_csv_rejects_mismatched_names(tmp_path):
    rows = Dataset(["a"], [0], [0], [[1.0, 2.0]])
    with pytest.raises(InputError):
        dataset_to_csv(rows, ["only-one"], tmp_path / "x.csv")


@pytest.mark.parametrize("sid", ["a,b", "a\nb", "a\rb", " a", "a ", "\ta", "\x0ba"])
def test_dataset_csv_refuses_an_id_it_cannot_return(tmp_path, sid):
    """An id that ``dataset_from_csv`` would split, cut or strip is refused
    by name before anything is written."""
    rows = Dataset(["ok", sid], [0, 1], [0, 0], [[1.0], [2.0]])
    path = tmp_path / "d.csv"
    with pytest.raises(InputError, match="^" + re.escape(f"sample id {sid!r} would not")):
        dataset_to_csv(rows, None, path)
    assert not path.exists()


@pytest.mark.parametrize("sid", ["", "a b", "a;b", "a\tb"])
def test_dataset_csv_returns_ids_with_inner_spaces_unchanged(tmp_path, sid):
    rows = Dataset([sid], [1], [0], [[1.0]])
    dataset_to_csv(rows, None, tmp_path / "d.csv")
    assert list(dataset_from_csv(tmp_path / "d.csv")[1].sample_ids) == [sid]
