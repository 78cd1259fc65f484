"""Feature extraction, windowing and normalization.

Features are deliberately cheap time-domain statistics (the point of the
harness is early detection, not rich featurization): arithmetic mean,
population variance, and the least-squares slope of value against sample
index.  A windowed extraction splits a signal into k equal spans and treats
every window as an independent sample downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, WindowError, _read_text
from .waveforms import Waveform

__all__ = [
    "FEATURE_NAMES",
    "FeatureRow",
    "NormalizationParams",
    "extract_features",
    "windowed_features",
    "normalize_dataset",
    "labels_array",
    "dataset_to_csv",
    "dataset_from_csv",
]

FEATURE_NAMES = ("mean", "variance", "slope")


def _as_samples(signal) -> np.ndarray:
    if isinstance(signal, Waveform):
        return signal.samples
    arr = np.asarray(signal, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise InputError("feature input must be a non-empty 1-D array")
    if not np.all(np.isfinite(arr)):
        raise InputError("feature input must be finite")
    return arr


def _check_selection(selection) -> tuple[str, ...]:
    sel = tuple(selection)
    if not sel:
        raise InputError("feature selection must not be empty")
    for name in sel:
        if name not in FEATURE_NAMES:
            raise InputError(f"unknown feature {name!r}; "
                             f"choose from {', '.join(FEATURE_NAMES)}")
    if len(set(sel)) != len(sel):
        raise InputError("feature selection contains duplicates")
    return sel


def _feature_rows(x: np.ndarray, sel: tuple[str, ...]) -> np.ndarray:
    """Selected features of each row of a (k, w) array; returns (k, len(sel))."""
    k, width = x.shape
    means = x.mean(axis=1)
    out = np.empty((k, len(sel)))
    for j, name in enumerate(sel):
        if name == "mean":
            out[:, j] = means
        elif name == "variance":
            out[:, j] = x.var(axis=1)
        else:
            # least-squares slope of value against sample index (per-sample
            # units); one dot per row keeps each window's bytes as if alone
            if width < 2:
                raise InputError("slope needs at least 2 samples")
            idx = np.arange(width, dtype=np.float64)
            di = idx - idx.mean()
            den = np.dot(di, di)
            out[:, j] = [np.dot(di, row - m) / den for row, m in zip(x, means)]
    return out


def extract_features(signal, selection=FEATURE_NAMES) -> np.ndarray:
    """Compute the selected features of one signal, in the given order."""
    x = _as_samples(signal)
    return _feature_rows(x[None, :], _check_selection(selection))[0]


def _windowed_rows(x: np.ndarray, k: int, selection) -> np.ndarray:
    """``windowed_features`` of each row of a C-contiguous (rows, n) array.

    :returns: shape (rows, k, d); each row's bytes are those of the row alone
    """
    if k < 1:
        raise WindowError("window count must be >= 1")
    rows, n = x.shape
    if n % k != 0:
        raise WindowError(f"{n} samples do not divide into {k} equal windows")
    sel = _check_selection(selection)
    return _feature_rows(x.reshape(rows * k, -1), sel).reshape(rows, k, len(sel))


def windowed_features(signal, k: int, selection=FEATURE_NAMES) -> np.ndarray:
    """Split into k equal windows and featurize each; returns shape (k, d).

    The sample count must divide evenly by k.
    """
    return _windowed_rows(_as_samples(signal)[None, :], k, selection)[0]


@dataclass
class FeatureRow:
    """One observation: the features of one window of one signal instance."""

    sample_id: str
    label: int                 # 0 = normal, 1 = anomalous (scoring only)
    window_index: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64).ravel()
        if self.label not in (0, 1):
            raise InputError("label must be 0 or 1")
        if self.window_index < 0:
            raise InputError("window_index must be >= 0")


@dataclass
class NormalizationParams:
    """Per-dimension min-max parameters frozen from a training set."""

    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self):
        self.mins = np.asarray(self.mins, dtype=np.float64).ravel()
        self.maxs = np.asarray(self.maxs, dtype=np.float64).ravel()
        if self.mins.shape != self.maxs.shape:
            raise InputError("mins and maxs must have equal length")

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Map raw vectors, shape (..., d), with the frozen training min/max.

        Constant training dimensions map to 0.5; unseen values outside the
        training range simply fall outside [0, 1].
        """
        v = np.asarray(values, dtype=np.float64)
        if v.ndim == 0 or v.shape[-1] != self.mins.size:
            raise InputError(f"expected {self.mins.size} dims, got shape {v.shape}")
        span = self.maxs - self.mins
        const = span == 0.0
        out = (v - self.mins) / np.where(const, 1.0, span)
        out[..., const] = 0.5
        return out


def labels_array(rows: list[FeatureRow]) -> np.ndarray:
    return np.array([r.label for r in rows], dtype=np.int64)


def normalize_dataset(rows: list[FeatureRow]
                      ) -> tuple[list[FeatureRow], NormalizationParams]:
    """Min-max normalize every dimension to [0, 1] over the whole dataset."""
    if not rows:
        raise InputError("empty dataset")
    mat = np.stack([r.values for r in rows])
    params = NormalizationParams(mat.min(axis=0), mat.max(axis=0))
    out = [FeatureRow(r.sample_id, r.label, r.window_index, v)
           for r, v in zip(rows, params.apply(mat))]
    return out, params


def dataset_to_csv(rows: list[FeatureRow], feature_names, path) -> None:
    """Write ``sample_id,label,window_index,<feature columns>``.

    Rows are ordered by (sample_id, window_index).  ``feature_names`` label
    the value columns; pass None for anonymous ``f1..fD`` headers.
    """
    if not rows:
        raise InputError("empty dataset")
    dim = rows[0].values.size
    for r in rows:
        if r.values.size != dim:
            raise InputError("rows have inconsistent dimensionality")
    if feature_names is None:
        feature_names = [f"f{j + 1}" for j in range(dim)]
    feature_names = list(feature_names)
    if len(feature_names) != dim:
        raise InputError(f"{len(feature_names)} feature names for {dim} columns")
    header = "sample_id,label,window_index," + ",".join(feature_names)
    ordered = sorted(rows, key=lambda r: (r.sample_id, r.window_index))
    cells = []
    for r in ordered:
        cells += (r.sample_id, r.label, r.window_index, *r.values.tolist())
    row = "%s,%s,%s" + ",%.12e" * dim + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n" + (row * len(ordered)) % tuple(cells))


def dataset_from_csv(path) -> tuple[list[str], list[FeatureRow]]:
    """Read a dataset CSV back: (feature column names, rows)."""
    first, _, body = _read_text(path).partition("\n")
    header = first.strip().split(",")
    if header[:3] != ["sample_id", "label", "window_index"]:
        raise InputError(f"{path}: unexpected dataset header")
    names = header[3:]
    rows = []
    try:
        for line in body.split("\n"):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != len(header):
                raise ValueError(f"{len(parts)} fields, header has {len(header)}")
            rows.append(FeatureRow(parts[0], int(parts[1]), int(parts[2]),
                                   np.array([float(p) for p in parts[3:]])))
    except ValueError as exc:
        raise InputError(f"{path}: bad row {line!r} ({exc})") from None
    if not rows:
        raise InputError(f"{path}: no data rows")
    return names, rows
