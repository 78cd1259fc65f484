"""Hypothesis fuzzing of the files the CLI reads: config JSON, dataset CSV,
model JSON and waveform CSV.

Every generated config, dataset or model file is malformed by construction.
Each run goes through ``cli.main`` and must return exit code 2 with an
``amsdetect: error:`` line on stderr; any other exception escapes ``main``
and fails the test with its traceback.  Waveform CSVs are drawn well formed
or not, so their runs may also exit 0.
"""

import json
import string
import sys
from dataclasses import fields

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from amsdetect import ExperimentConfig, VrefConfig
from amsdetect.cli import main

FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

SCALARS = {
    "none": st.none(),
    "bool": st.booleans(),
    "int": st.integers(-10**6, 10**6),
    "float": st.floats(allow_nan=False, allow_infinity=False),
    "str": st.text(max_size=8),
}
JSON_TYPES = {**SCALARS,
              "list": st.lists(st.one_of(*SCALARS.values()), max_size=3),
              "dict": st.dictionaries(st.text(max_size=4),
                                      st.one_of(*SCALARS.values()), max_size=2)}
ANY_JSON = st.one_of(*JSON_TYPES.values())
# a token without field or line separators
TOKEN = st.text(alphabet=string.ascii_letters + string.digits + " .+-_:!?",
                max_size=8)


def _exits_two(capsys, argv):
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2, (argv, err)
    assert err.startswith("amsdetect: error: "), err


def _parses(kind, text) -> bool:
    try:
        kind(text)
    except ValueError:
        return False
    return True


# ------------------------------------------------------------ config JSON

BASE_CONFIG = {"experiment": "IA", "n_samples_per_class": 10, "n_samples": 300}
NON_FINITE = st.sampled_from([float("inf"), float("-inf"), float("nan")])
BELOW_ZERO = st.floats(max_value=-5e-324)       # -0.0 excluded
FIELDS = {f.name: f.type for f in fields(ExperimentConfig)}


def _json_types(kind: str) -> set[str]:
    """The JSON value types a field annotation accepts."""
    if kind.endswith(" | None"):
        return _json_types(kind[:-len(" | None")]) | {"none"}
    if kind.startswith("tuple["):
        return {"list"}
    return {"int": {"int"}, "float": {"int", "float"}, "str": {"str"},
            "bool": {"bool"}, "dict": {"dict"}}[kind]


@st.composite
def _wrong_type(draw):
    """A known key with a value of a JSON type its annotation refuses.

    A tuple field also gets a list holding one item of a refused type.
    """
    key = draw(st.sampled_from(sorted(FIELDS)))
    kind = FIELDS[key]
    refused = sorted(set(JSON_TYPES) - _json_types(kind))
    value = draw(st.one_of(*(JSON_TYPES[t] for t in refused)))
    if kind.startswith("tuple[") and draw(st.booleans()):
        item = kind[len("tuple["):].split(",")[0]
        bad = sorted(set(SCALARS) - _json_types(item) - {"list"})
        value = [draw(st.one_of(*(SCALARS[t] for t in bad)))]
    return {key: value}


OUT_OF_RANGE = {
    "window_k": st.integers(max_value=0),
    "n_samples_per_class": st.integers(max_value=9),
    "seed": st.integers(max_value=-1),
    "n_samples": st.integers(max_value=1),
    "duration": st.floats(max_value=0.0) | st.sampled_from(
        [float("inf"), float("nan")]),
    "sweep_points": st.integers(max_value=1),
    "kstage_k": st.integers(max_value=0),
    "birch_branching": st.integers(max_value=1),
    "spectral_sigma": st.floats(max_value=0.0) | st.sampled_from(
        [float("inf"), float("nan")]),
    "birch_threshold": st.floats(max_value=0.0) | st.sampled_from(
        [float("inf"), float("nan")]),
    "measurement_noise": st.floats(max_value=-0.0) | NON_FINITE,
    "jitter_gain": st.floats(max_value=-0.0) | NON_FINITE,
    "jitter_offset": st.floats(max_value=-0.0) | NON_FINITE,
    "noise_std": BELOW_ZERO | NON_FINITE,
    "rate_pct": st.floats(max_value=0.0) | st.floats(min_value=100.0) | NON_FINITE,
    "amp_low": st.floats(max_value=0.0) | NON_FINITE,
    "amp_high": st.floats(max_value=2.0, exclude_max=True) | NON_FINITE,   # < amp_low
    "threshold_frac": (st.floats(max_value=0.0)
                       | st.floats(min_value=1.0, exclude_min=True) | NON_FINITE),
    "delta_frac": BELOW_ZERO | NON_FINITE,
    "fault_temperature": st.floats(-40.0, 125.0) | NON_FINITE,
    **dict.fromkeys(["stim_dc", "stim_amplitude", "stim_frequency", "sweep_start",
                     "sweep_stop", "sweep_bias"], NON_FINITE),
}
NAMES = {"experiment", "algorithm", "analysis", "sigma_scope", "kstage_fault",
         "features", "observed_signals"}


@st.composite
def _unknown_name(draw):
    """A name-valued key given a name no registry holds."""
    key = draw(st.sampled_from(sorted(NAMES)))
    name = "no such " + draw(TOKEN)
    return {key: [name] if key in ("features", "observed_signals") else name}


FLOAT_KEYS = sorted(k for k, kind in FIELDS.items() if kind.startswith("float"))
VREF_KEYS = sorted(f.name for f in fields(VrefConfig))
BEYOND_FLOAT = (st.integers(int(sys.float_info.max) + 1, 10**400)
                | st.integers(-10**400, -int(sys.float_info.max) - 1))


INT_KEYS = sorted(k for k, kind in FIELDS.items() if kind.startswith("int"))
BEYOND_INDEX = (st.integers(sys.maxsize + 1, 10**400)
                | st.integers(-10**400, -sys.maxsize - 1))


@st.composite
def _oversized_integer(draw):
    """A float key, or a vref_params entry, given an integer beyond the
    float range, or an integer key one beyond the index range (sys.maxsize);
    JSON writes either without loss."""
    key = draw(st.sampled_from([*FLOAT_KEYS, *INT_KEYS, "vref_params"]))
    value = draw(BEYOND_INDEX if key in INT_KEYS else BEYOND_FLOAT)
    if key == "vref_params":
        return {key: {draw(st.sampled_from(VREF_KEYS)): value}}
    return {key: value}


BAD_CONFIG_EDITS = st.one_of(
    _wrong_type(),
    _unknown_name(),
    _oversized_integer(),
    st.sampled_from(sorted(OUT_OF_RANGE)).flatmap(
        lambda key: OUT_OF_RANGE[key].map(lambda v: {key: v})),
    st.dictionaries(TOKEN.filter(lambda k: k not in FIELDS), ANY_JSON,
                    min_size=1, max_size=2),
)


@FUZZ
@given(edit=BAD_CONFIG_EDITS)
def test_fuzzed_config_values_exit_two(tmp_path, capsys, edit):
    """One key of a refused type, out of range (an integer beyond the float
    or index range included), naming nothing, or unknown."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**BASE_CONFIG, **edit}))
    _exits_two(capsys, ["experiment", "--config", str(path)])


@FUZZ
@given(cut=st.integers(0, 10**6), top=st.one_of(
    *(JSON_TYPES[t] for t in sorted(JSON_TYPES) if t != "dict")),
    command=st.sampled_from(["experiment", "suite"]))
def test_fuzzed_config_documents_exit_two(tmp_path, capsys, cut, top, command):
    """Truncated JSON text, a document without an experiment, a non-object."""
    text = json.dumps(BASE_CONFIG)
    path = tmp_path / "config.json"
    for doc in (text[:cut % len(text)], json.dumps({"seed": 1}),
                json.dumps({"experiments": [{"seed": 1}]})):
        path.write_text(doc)
        _exits_two(capsys, [command, "--config", str(path)])
    path.write_text(json.dumps(top))
    _exits_two(capsys, [command, "--config", str(path)])


# ------------------------------------------------------------ dataset CSV

HEADER = ["sample_id", "label", "window_index", "mean"]
ROWS = [[f"s{i}", str(i // 5), "0", repr(0.1 * i + 0.05 * (i // 5))]
        for i in range(10)]


def _csv(header, rows) -> str:
    return "\n".join(",".join(r) for r in [header, *rows]) + "\n"


@st.composite
def _bad_dataset(draw) -> str:
    header, rows = list(HEADER), [list(r) for r in ROWS]
    row = rows[draw(st.integers(0, len(rows) - 1))]
    kind = draw(st.sampled_from(["header", "fields", "label", "window",
                                 "value", "no rows", "constant"]))
    if kind == "header":
        i = draw(st.integers(0, 2))
        header[i] = draw(TOKEN.filter(lambda t, want=header[i]: t.strip() != want))
    elif kind == "fields":
        row[:] = row[:-1] if draw(st.booleans()) else [*row, draw(TOKEN)]
    elif kind == "label":
        row[1] = draw(TOKEN.filter(
            lambda t: not _parses(int, t) or int(t) not in (0, 1)))
    elif kind == "window":
        row[2] = draw(TOKEN.filter(lambda t: not _parses(int, t) or int(t) < 0))
    elif kind == "value":
        row[3] = draw(TOKEN.filter(lambda t: not _parses(float, t))
                      | st.sampled_from(["nan", "inf", "-inf"]))
    elif kind == "no rows":
        rows = [[""]] * draw(st.integers(0, 3))
    else:
        rows = [[r[0], r[1], r[2], "0.5"] for r in rows]
    return _csv(header, rows)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # numpy on inf data
@FUZZ
@given(text=_bad_dataset(), algorithm=st.sampled_from(["kmeans", "gmm"]))
def test_fuzzed_dataset_csv_exits_two(tmp_path, capsys, text, algorithm):
    """A bad header, field count or token, no rows, or rows all equal."""
    path = tmp_path / "data.csv"
    path.write_text(text)
    _exits_two(capsys, ["fit", "--in", str(path), "--algorithm", algorithm,
                        "--out", str(tmp_path / "model.json")])


# ------------------------------------------------------------- model JSON

ARRAY_KEYS = ["mu_k", "sigma_k", "centroids"]
DROP = object()
NUMBER = st.floats(-10.0, 10.0)
BAD_ARRAY = st.one_of(
    *SCALARS.values(),
    JSON_TYPES["dict"],
    st.lists(NUMBER, max_size=4).filter(lambda v: len(v) != 2),
    st.lists(st.lists(NUMBER, max_size=3), min_size=2, max_size=2).filter(
        lambda v: [len(r) for r in v] != [1, 1]),
    st.lists(st.lists(NUMBER, min_size=1, max_size=1), max_size=4).filter(
        lambda v: len(v) != 2),
)


@st.composite
def _bad_model_edit(draw):
    """(key, value) that breaks a kmeans model document; DROP removes the key."""
    kind = draw(st.sampled_from(["drop", "array", "header", "algorithm",
                                 "anomalous", "norm", "lists"]))
    if kind == "drop":
        key = draw(st.sampled_from(["format", "version", "k", "algorithm",
                                    *ARRAY_KEYS]))
        return key, DROP
    if kind == "array":
        key, value = draw(st.sampled_from(ARRAY_KEYS)), draw(BAD_ARRAY)
    elif kind == "header":
        key = draw(st.sampled_from(["format", "version", "k"]))
        want = {"format": "amsdetect-model", "version": 1, "k": 2}[key]
        value = draw(ANY_JSON.filter(lambda v: v != want))
    elif kind == "algorithm":
        key = "algorithm"
        value = draw(ANY_JSON.filter(lambda v: v not in ("kmeans", "birch", "centroid")
                                     if isinstance(v, str) else True))
    elif kind == "anomalous":
        key = "anomalous_cluster"
        value = draw(ANY_JSON.filter(lambda v: type(v) is not int or v not in (0, 1)))
    elif kind == "norm":
        key = "norm"
        value = draw(st.one_of(*(JSON_TYPES[t] for t in ("bool", "int", "float",
                                                         "str", "list")),
                               st.fixed_dictionaries({"mins": st.just([0.0])})))
    else:
        key = draw(st.sampled_from(["centroid_pairs", "train_assignments",
                                    "sse_history", "loglik_history"]))
        value = draw(st.one_of(*(JSON_TYPES[t] for t in ("bool", "int", "float",
                                                         "str", "dict"))))
        if key == "centroid_pairs" and draw(st.booleans()):
            value = draw(st.lists(ANY_JSON, min_size=1, max_size=2))
    return key, value


@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("model")
    data, model = tmp / "data.csv", tmp / "model.json"
    data.write_text(_csv(HEADER, ROWS))
    assert main(["fit", "--in", str(data), "--algorithm", "kmeans",
                 "--out", str(model)]) == 0
    return data, json.loads(model.read_text())


@FUZZ
@given(edit=_bad_model_edit(), cut=st.integers(0, 10**6),
       command=st.sampled_from(["detect", "select-centroids"]))
def test_fuzzed_model_json_exits_two(tmp_path, capsys, fitted, edit, cut, command):
    """A broken model document, its truncated text, and a non-object."""
    data, doc = fitted
    capsys.readouterr()
    path = tmp_path / "model.json"
    args = (["--samples-per-window", "10", "--sample-period", "1e-6"]
            if command == "detect" else [])
    text = json.dumps(doc)
    key, value = edit
    broken = {k: v for k, v in doc.items() if k != key}
    if value is not DROP:
        broken[key] = value
    for bad in (json.dumps(broken), text[:cut % len(text)], json.dumps([doc])):
        path.write_text(bad)
        _exits_two(capsys, [command, "--model", str(path), "--in", str(data),
                            *args, "--out", str(tmp_path / "out")])


# ------------------------------------------------------------ waveform CSV

EDGE = st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e300, 1.7e308, -1.7e308])
CELL = st.one_of((st.floats(-1e6, 1e6) | EDGE).map(repr),
                 st.sampled_from(["nan", "inf", "-inf", "1_0", ""]), TOKEN)


@st.composite
def _waveform_csv(draw) -> str:
    """A waveform CSV: uniform times and finite values, then up to two edits.

    An edit swaps the header, cuts the file to one sample or none, drops or
    adds a cell, moves one time, puts any cell (a token, an extreme, nan,
    inf) in place of a number, or adds a blank line; lines may end in
    ``\\r\\n``.  A time moves only where it parses, and a cell is replaced
    only in a row that has both.
    """
    n = draw(st.integers(2, 40))
    t0 = draw(st.sampled_from([0.0, 1e-6]) | st.floats(-1.0, 1.0))
    dt = draw(st.floats(1e-9, 1e3) | st.sampled_from([5e-324, 1e-300, 1e300]))
    values = draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n))
    lines = [[repr(t0 + i * dt), repr(v)] for i, v in enumerate(values)]
    header = "t,value"
    for _ in range(draw(st.integers(0, 2))):
        edit = draw(st.sampled_from(["header", "cut", "cells", "time", "cell",
                                     "blank"]))
        if edit == "header":
            header = draw(TOKEN)
        elif edit == "cut":
            del lines[draw(st.integers(0, 1)):]
        elif lines and edit == "cells":
            row = draw(st.sampled_from(lines))
            row[:] = row[:1] if draw(st.booleans()) else [*row, draw(CELL)]
        elif edit == "time" and (timed := [r for r in lines if _parses(float, r[0])]):
            row = draw(st.sampled_from(timed))
            row[0] = repr(float(row[0]) + draw(st.floats(-1e3, 1e3)))
        elif edit == "cell" and (full := [r for r in lines if len(r) > 1]):
            draw(st.sampled_from(full))[draw(st.integers(0, 1))] = draw(CELL)
        elif edit == "blank":
            lines.insert(draw(st.integers(0, len(lines))), [""])
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join([header, *(",".join(r) for r in lines)]) + end


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # numpy on extreme data
@FUZZ
@given(text=_waveform_csv(), command=st.sampled_from([
    ["inject", "--mode", "random"],
    ["inject", "--mode", "periodic"],
    ["featurize"],
    ["featurize", "--windows", "2", "--features", "variance,slope"],
    ["featurize", "--windows", "5"]]))
def test_fuzzed_waveform_csv_never_tracebacks(tmp_path, capsys, text, command):
    """Inject and featurize either succeed or exit 2 naming the problem."""
    path = tmp_path / "wave.csv"
    path.write_bytes(text.encode())
    out = tmp_path / ("inj" if command[0] == "inject" else "data.csv")
    rc = main([command[0], "--in", str(path), *command[1:], "--out", str(out)])
    err = capsys.readouterr().err
    assert rc in (0, 2), err
    assert rc == 0 or err.startswith("amsdetect: error: "), err
