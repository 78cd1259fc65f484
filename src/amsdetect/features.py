"""Feature extraction, windowing, normalization and the dataset type.

Features are deliberately cheap time-domain statistics (the point of the
harness is early detection, not rich featurization): arithmetic mean,
population variance, and the least-squares slope of value against sample
index.  A windowed extraction splits a signal into k equal spans and treats
every window as an independent sample downstream: one row of a ``Dataset``,
whose columns are the sample ids, labels, window indices and the (rows, d)
feature matrix the clustering reads.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, InputError, WindowError, _read_text
from .waveforms import Waveform, _float_errors

__all__ = [
    "FEATURE_NAMES",
    "Dataset",
    "NormalizationParams",
    "windowed_features",
    "normalize_dataset",
    "labels_array",
    "dataset_to_csv",
    "dataset_from_csv",
]

FEATURE_NAMES = ("mean", "variance", "slope")


def _check_selection(selection) -> tuple[str, ...]:
    """A feature selection (config key ``features``) as a tuple."""
    sel = tuple(selection)
    for name in sel:
        if name not in FEATURE_NAMES:
            raise ConfigurationError(f"unknown feature {name!r}; choose from "
                                     f"{', '.join(FEATURE_NAMES)}", config_key="features")
    if len(set(sel)) != len(sel) or not sel:
        raise ConfigurationError("features must be a non-empty set of distinct names",
                                 config_key="features")
    return sel


def _check_windows(n: int, k: int, selection) -> None:
    """Refuse (config key ``window_k``) k windows of n samples that do not
    divide evenly, or that leave the slope in ``selection`` one sample."""
    if k < 1:
        raise WindowError("window count must be >= 1", config_key="window_k")
    if n % k != 0:
        raise WindowError(f"{n} samples do not divide into {k} equal windows",
                          config_key="window_k")
    if "slope" in selection and n // k < 2:
        raise InputError("slope needs at least 2 samples", config_key="window_k")


def _windowed_rows(x: np.ndarray, k: int, selection) -> np.ndarray:
    """``windowed_features`` of each row of a C-contiguous (rows, n) array.

    :returns: shape (rows, k, d); each row's bytes are those of the row alone
    """
    rows, n = x.shape
    sel = _check_selection(selection)
    _check_windows(n, k, sel)
    x = x.reshape(rows * k, -1)
    width = x.shape[1]
    out = np.empty((rows * k, len(sel)))
    # a feature of finite samples may still overflow; it comes out non-finite
    with np.errstate(over="ignore", invalid="ignore"):
        means = x.mean(axis=1)
        for j, name in enumerate(sel):
            if name == "mean":
                out[:, j] = means
            elif name == "variance":
                out[:, j] = x.var(axis=1)
            else:
                # least-squares slope of value against sample index (per-sample
                # units): one ``ddot`` per window, inside ``np.vecdot``'s loop,
                # so each window's bytes are those of ``np.dot`` on it alone;
                # ``dev @ di`` would be one gemv, which rounds differently
                idx = np.arange(width, dtype=np.float64)
                di = idx - idx.mean()
                out[:, j] = np.vecdot(x - means[:, None], di) / np.dot(di, di)
    return out.reshape(rows, k, len(sel))


def windowed_features(signal: Waveform, k: int, selection=FEATURE_NAMES) -> np.ndarray:
    """Featurize each of a waveform's k equal windows; returns shape (k, d).

    The sample count must divide evenly by k.

    :raises InputError: a feature overflows float64 (finite samples can
        still have an infinite variance)
    """
    out = _windowed_rows(signal.samples[None, :], k, selection)[0]
    if not np.isfinite(out).all():
        raise InputError("a window feature overflows float64")
    return out


@dataclass(frozen=True, eq=False)
class Dataset:
    """Observations as columns: row i is window ``windows[i]`` of sample
    ``sample_ids[i]``, with features ``values[i]``.

    ``sample_ids`` is a tuple of ``str`` (numpy's ``U`` dtype drops trailing
    NULs); ``labels`` (0 normal, 1 anomalous; scoring only) and ``windows``
    are int64, ``values`` is (rows, d) float64, all read-only copies.
    ``len`` is the row count and ``np.asarray`` gives ``values``.
    """

    sample_ids: tuple[str, ...]
    labels: np.ndarray
    windows: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        ids = tuple(self.sample_ids)
        labels, windows = (np.asarray(c) for c in (self.labels, self.windows))
        if any(c.size and c.dtype.kind not in "iu" for c in (labels, windows)):
            raise InputError("labels and window indices must be integers")
        labels, windows = labels.astype(np.int64), windows.astype(np.int64)
        values = np.array(self.values, dtype=np.float64)
        if not (labels.ndim == windows.ndim == 1 and values.ndim == 2
                and len(ids) == len(labels) == len(windows) == len(values) > 0):
            raise InputError("a dataset needs one or more rows: equal-length "
                             "1-D columns and a (rows, d) values matrix")
        if not np.isin(labels, (0, 1)).all():
            raise InputError("label must be 0 or 1")
        if (windows < 0).any():
            raise InputError("window_index must be >= 0")
        for col in (labels, windows, values):
            col.setflags(write=False)
        vars(self).update(sample_ids=ids, labels=labels, windows=windows, values=values)

    @classmethod
    def from_windows(cls, sample_ids, labels, feats) -> Dataset:
        """Rows of (samples, k, ...) window features, sample-major: window w
        of sample i is row i*k + w, its features flattened in C order."""
        feats = np.asarray(feats, dtype=np.float64)
        n, k = feats.shape[:2]
        return cls(tuple(s for s in sample_ids for _ in range(k)),
                   np.repeat(labels, k), np.tile(np.arange(k), n),
                   feats.reshape(n * k, -1))

    def __len__(self) -> int:
        return len(self.sample_ids)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.values, dtype=dtype, copy=copy)


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
        with _float_errors():   # a non-finite result is as_matrix's to report
            span = self.maxs - self.mins
            const = span == 0.0
            out = (v - self.mins) / np.where(const, 1.0, span)
        out[..., const] = 0.5
        return out


def labels_array(ds: Dataset) -> np.ndarray:
    """The dataset's label column."""
    return ds.labels


def normalize_dataset(ds: Dataset) -> tuple[Dataset, NormalizationParams]:
    """Min-max normalize every dimension to [0, 1] over the whole dataset."""
    params = NormalizationParams(ds.values.min(axis=0), ds.values.max(axis=0))
    return replace(ds, values=params.apply(ds.values)), params


def dataset_to_csv(ds: Dataset, feature_names, path) -> None:
    """Write ``sample_id,label,window_index,<feature columns>``.

    Rows are ordered as ``sorted`` orders their (sample_id, window_index).
    ``feature_names`` label the value columns; pass None for anonymous
    ``f1..fD`` headers.

    :raises InputError: a sample id that ``dataset_from_csv`` would not
        read back unchanged: one holding ``,``, ``\n`` or ``\r``, or with
        surrounding whitespace; nothing is written
    """
    for sid in dict.fromkeys(ds.sample_ids):
        if sid != sid.strip() or any(c in sid for c in ",\n\r"):
            raise InputError(f"sample id {sid!r} would not read back from a dataset CSV "
                             "(it holds ',' or a line break, or surrounding whitespace)")
    dim = ds.values.shape[1]
    if feature_names is None:
        feature_names = [f"f{j + 1}" for j in range(dim)]
    if len(feature_names) != dim:
        raise InputError(f"{len(feature_names)} feature names for {dim} columns")
    header = "sample_id,label,window_index," + ",".join(feature_names)
    ids, labels, windows = ds.sample_ids, ds.labels.tolist(), ds.windows.tolist()
    order = sorted(range(len(ds)), key=lambda i: (ids[i], windows[i]))
    cells = []
    for i, values in zip(order, ds.values[order].tolist()):
        cells += (ids[i], labels[i], windows[i], *values)
    row = "%s,%s,%s" + ",%.12e" * dim + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n" + (row * len(order)) % tuple(cells))


def dataset_from_csv(path) -> tuple[list[str], Dataset]:
    """Read a dataset CSV back, rows in file order: (feature column names, dataset).

    :raises InputError: a bad header, or the first bad row, quoted
    """
    first, _, body = _read_text(path).partition("\n")
    header = first.strip().split(",")
    if header[:3] != ["sample_id", "label", "window_index"]:
        raise InputError(f"{path}: unexpected dataset header")
    rows = []
    try:
        for line in body.split("\n"):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != len(header):
                raise ValueError(f"{len(parts)} fields, header has {len(header)}")
            # a window index beyond int64 raises OverflowError
            label, window = int(parts[1]), np.int64(parts[2])
            values = [float(p) for p in parts[3:]]
            if label not in (0, 1):
                raise ValueError("label must be 0 or 1")
            if window < 0:
                raise ValueError("window_index must be >= 0")
            rows.append((parts[0], label, window, values))
    except (ValueError, OverflowError) as exc:
        raise InputError(f"{path}: bad row {line!r} ({exc})") from None
    if not rows:
        raise InputError(f"{path}: no data rows")
    return header[3:], Dataset(*zip(*rows))
