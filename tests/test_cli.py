"""End-to-end checks of the command-line pipeline.

Everything goes through ``cli.main`` with an explicit argv, so these tests
exercise the same code path as the console script; only the out-of-memory
test spawns a process, to cap its address space alone.
"""

import codecs
import json
import locale
import os
import pathlib
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

import amsdetect
from amsdetect.bench import ExperimentConfig, evaluate
from amsdetect.centroid import refine_model
from amsdetect.cli import _parse, build_parser, main
from amsdetect.cluster import as_matrix, assign_many, load_model
from amsdetect.earlydetect import detections_to_csv, scan_windows
from amsdetect.errors import ConfigurationError
from amsdetect.features import (Dataset, dataset_from_csv, dataset_to_csv,
                                windowed_features)
from amsdetect.inject import FAULT_NAMES
from amsdetect.waveforms import VrefConfig, waveform_from_csv

UTF8 = codecs.lookup(locale.getpreferredencoding(False)).name == "utf-8"


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_usage_errors_exit_one():
    with pytest.raises(SystemExit) as exc:
        main(["simulate"])          # missing required --out
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_missing_input_exits_two(tmp_path, capsys):
    rc = main(["inject", "--in", str(tmp_path / "nope.csv"),
               "--mode", "random", "--out", str(tmp_path)])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_bad_parameter_exits_two(tmp_path, capsys):
    sim = tmp_path / "sim"
    assert main(["simulate", "--n-samples", "200", "--out", str(sim)]) == 0
    rc = main(["inject", "--in", str(sim / "input.csv"), "--mode", "random",
               "--rate-pct", "1000", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "rate" in capsys.readouterr().err
    for amp, key in (("--amp-low=nan", "amp_low"), ("--amp-high=nan", "amp_high"),
                     ("--amp-high=inf", "amp_high")):
        rc = main(["inject", "--in", str(sim / "input.csv"), "--mode", "random",
                   amp, "--out", str(tmp_path / "x")])
        assert rc == 2
        assert f"{key} must be finite" in capsys.readouterr().err
    for n in ("0", "1"):
        rc = main(["simulate", "--circuit", "opamp", "--n-samples", n,
                   "--out", str(tmp_path / "y")])
        assert rc == 2
        assert "n_samples" in capsys.readouterr().err
    data = tmp_path / "data.csv"
    data.write_text("sample_id,label,window_index,mean\n" + "".join(
        f"s{i},{i // 5},0,{0.1 * i + 0.05 * (i // 5)}\n" for i in range(10)))
    for sigma in ("nan", "inf", "-inf", "0"):
        rc = main(["fit", "--in", str(data), "--algorithm", "spectral",
                   f"--spectral-sigma={sigma}", "--out", str(tmp_path / "m.json")])
        assert rc == 2
        assert "sigma must be finite and > 0" in capsys.readouterr().err
    model = tmp_path / "km.json"
    assert main(["fit", "--in", str(data), "--out", str(model)]) == 0
    capsys.readouterr()
    for period in ("nan", "inf", "0"):
        rc = main(["detect", "--model", str(model), "--in", str(data),
                   "--samples-per-window", "10", f"--sample-period={period}",
                   "--out", str(tmp_path / "det.csv")])
        assert rc == 2
        assert "sample_period must be finite and > 0" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--fault", "Parametric", "--fault-temp", "inf"],
     "Parametric temperature must be finite, got inf (config key: fault_temperature)"),
    (["--fault", "Parametric", "--fault-temp=-inf"],
     "Parametric temperature must be finite, got -inf"),
    (["--fault", "Parametric", "--fault-temp", "nan"],
     "Parametric temperature must be finite, got nan"),
    (["--analysis", "dc_temp_sweep", "--sweep-bias", "inf"],
     "sweep bias must be finite, got inf (config key: sweep_bias)"),
    (["--analysis", "dc_input_sweep", "--sweep-start=-inf"],
     "sweep start must be finite, got -inf (config key: sweep_start)"),
    (["--analysis", "dc_input_sweep", "--sweep-stop", "nan"],
     "sweep stop must be finite, got nan (config key: sweep_stop)"),
])
def test_non_finite_fault_and_sweep_values_exit_two(tmp_path, capsys, argv, message):
    """Refused before simulation: no rail-clipped waveform is written."""
    out = tmp_path / "sim"
    rc = main(["simulate", "--circuit", "opamp", "--n-samples", "50", *argv,
               "--out", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


WAVE = "t,value\n0.0,1.0\n1.0e-8,2.0\n2.0e-8,3.0\n"
DATA = "sample_id,label,window_index,mean\na,0,0,0.5\nb,1,0,0.7\n"


@pytest.mark.parametrize("command,text,message", [
    ("inject", WAVE.replace("2.0\n", "two\n"), "'t,value' numbers"),
    ("inject", WAVE.replace("2.0\n", "2.0,9\n"), "'t,value' numbers"),
    ("inject", WAVE.replace("2.0e-8", "5.0e-8"), "not uniformly spaced"),
    ("fit", DATA.replace("b,1,0,0.7", "b,1,0"), "fields"),
    ("fit", DATA.replace("b,1,", "b,x,"), "invalid literal"),
    ("fit", DATA.replace("b,1,", "b,2,"), "'b,2,0,0.7' (label must be 0 or 1)"),
    ("fit", DATA.replace("b,1,0,", "b,1,-1,"), "window_index must be >= 0"),
])
def test_bad_csv_exits_two(tmp_path, capsys, command, text, message):
    """Malformed waveform and dataset CSVs end in exit 2, not a traceback."""
    path = tmp_path / "in.csv"
    path.write_text(text)
    args = ["--mode", "random"] if command == "inject" else []
    rc = main([command, "--in", str(path), *args,
               "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "in.csv" in err and message in err


def _wave_csv(path, samples):
    path.write_text("t,value\n" + "".join(f"{i * 1e-8!r},{v!r}\n"
                                          for i, v in enumerate(samples)))
    return path


@pytest.mark.parametrize("mode", ["random", "periodic"])
def test_injection_overflow_exits_two_with_one_line(tmp_path, capsys, mode):
    """A finite waveform whose stamped anomalies overflow is refused as such."""
    wave = _wave_csv(tmp_path / "big3.csv", [1e308, -1e308, 5e307, 1.0])
    rc = main(["inject", "--in", str(wave), "--mode", mode,
               "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["amsdetect: error: injected values overflow float64"]
    assert not (tmp_path / "out" / "injected.csv").exists()


def test_featurize_overflow_exits_two_naming_the_file(tmp_path, capsys):
    """Finite samples whose variance overflows end in exit 2, not an inf row."""
    wave = _wave_csv(tmp_path / "big.csv", [1e300, -1e300, 5e299, 1.0])
    out = tmp_path / "d.csv"
    rc = main(["featurize", "--in", str(wave), "--windows", "2", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        f"amsdetect: error: {wave}: a window feature overflows float64"]
    assert not out.exists()


def test_featurize_refuses_an_id_a_dataset_csv_cannot_return(tmp_path, capsys):
    """A file stem with a comma is a sample id that ``fit`` would not read
    back unchanged, so featurize refuses it and writes no dataset."""
    waves = [_wave_csv(tmp_path / f"{name}.csv", [0.0, 1.0, 0.5, 0.25])
             for name in ("a,b", "c")]
    out = tmp_path / "d.csv"
    assert main(["featurize", "--in", *map(str, waves), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "amsdetect: error: sample id 'a,b' would not read back from a dataset CSV "
        "(it holds ',' or a line break, or surrounding whitespace)\n")
    assert not out.exists()


# a valid first line, then bytes that are not UTF-8 (but are Latin-1)
NOT_TEXT = b"t,value\n0.0,1.0\n" + bytes(range(128, 256))


@pytest.mark.skipif(not UTF8, reason="outside UTF-8 these bytes may decode, "
                                     "or fail under another name")
@pytest.mark.parametrize("argv", [
    ["inject", "--in", "{bad}", "--mode", "random", "--out", "{tmp}/out"],
    ["featurize", "--in", "{bad}", "--out", "{tmp}/d.csv"],
    ["fit", "--in", "{bad}", "--out", "{tmp}/m.json"],
    ["select-centroids", "--model", "{bad}", "--in", "{data}",
     "--out", "{tmp}/r.json"],
    ["detect", "--model", "{bad}", "--in", "{data}",
     "--samples-per-window", "1", "--sample-period", "1e-6"],
    ["detect", "--model", "{model}", "--in", "{bad}",
     "--samples-per-window", "1", "--sample-period", "1e-6"],
    ["report", "--in", "{bad}"],
    ["suite", "--config", "{bad}"],
    ["experiment", "--config", "{bad}"],
])
def test_non_utf8_input_exits_two(tmp_path, capsys, argv):
    """A file that does not decode ends in exit 2 naming it, not a traceback."""
    bad, data, model = tmp_path / "bad.bin", tmp_path / "data.csv", tmp_path / "model.json"
    bad.write_bytes(NOT_TEXT)
    data.write_text(DATA)
    assert main(["fit", "--in", str(data), "--algorithm", "kmeans",
                 "--out", str(model)]) == 0
    capsys.readouterr()
    rc = main([a.format(bad=bad, data=data, model=model, tmp=tmp_path)
               for a in argv])
    assert rc == 2
    err = capsys.readouterr().err
    assert "bad.bin: not utf-8 text" in err


def test_full_pipeline(tmp_path, capsys):
    sim = tmp_path / "sim"
    inj = tmp_path / "inj"
    data = tmp_path / "data.csv"
    model = tmp_path / "model.json"
    refined = tmp_path / "refined.json"
    det = tmp_path / "det.csv"

    rc = main(["simulate", "--circuit", "vref_blocks", "--n-samples", "300",
               "--noise-std", "0.01", "--seed", "3", "--out", str(sim)])
    assert rc == 0
    for name in ("input", "pll_frequency", "pll_intensity", "trig", "output"):
        assert (sim / f"{name}.csv").exists()

    rc = main(["inject", "--in", str(sim / "input.csv"), "--mode", "random",
               "--seed", "9", "--out", str(inj)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "injected 2 of 300 samples" in out      # 0.5% of 300, half-up
    assert (inj / "injected.csv").exists()
    assert (inj / "record.csv").exists()

    rc = main(["featurize", "--in", str(sim / "input.csv"),
               str(inj / "injected.csv"), "--windows", "5",
               "--out", str(data)])
    assert rc == 0
    lines = data.read_text().splitlines()
    assert lines[0] == "sample_id,label,window_index,mean,variance,slope"
    assert len(lines) == 11                        # 2 samples x 5 windows

    rc = main(["fit", "--in", str(data), "--algorithm", "kmeans",
               "--seed", "0", "--out", str(model)])
    assert rc == 0
    assert "fit kmeans on 10 rows x 3 dims" in capsys.readouterr().out
    m = load_model(model)
    assert m.algorithm == "kmeans" and m.k == 2
    assert list(m.feature_names) == ["mean", "variance", "slope"]
    assert m.norm is not None

    rc = main(["select-centroids", "--model", str(model), "--in", str(data),
               "--out", str(refined)])
    assert rc == 0
    assert "dim 0:" in capsys.readouterr().out
    r = load_model(refined)
    assert r.algorithm == "centroid"
    assert len(r.centroid_pairs) == 3

    rc = main(["detect", "--model", str(model), "--in", str(data),
               "--samples-per-window", "60",
               "--sample-period", repr(20e-6 / 300), "--out", str(det)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "detected" in out
    assert det.read_text().splitlines()[0] == \
        "sample_id,first_window,m,latency_s,speedup"

    # --no-normalize saves no norm, so select-centroids and detect read the
    # raw values; the variance column alone already lies in [0, 1]
    raw_data, raw = tmp_path / "raw.csv", tmp_path / "raw.json"
    assert main(["featurize", "--in", str(sim / "input.csv"),
                 str(inj / "injected.csv"), "--windows", "5",
                 "--features", "variance", "--out", str(raw_data)]) == 0
    assert main(["fit", "--in", str(raw_data), "--algorithm", "kmeans",
                 "--no-normalize", "--out", str(raw)]) == 0
    assert json.loads(raw.read_text())["norm"] is None
    m = load_model(raw)
    _, ds = dataset_from_csv(raw_data)
    mat = as_matrix(ds)
    assert main(["select-centroids", "--model", str(raw), "--in", str(raw_data),
                 "--out", str(refined)]) == 0
    assert load_model(refined).centroid_pairs == \
        refine_model(m, mat).centroid_pairs
    # --no-early-stop consumes all 5 windows of every sample
    assert main(["detect", "--model", str(raw), "--in", str(raw_data),
                 "--samples-per-window", "60", "--sample-period", "1e-7",
                 "--no-early-stop", "--out", str(det)]) == 0
    ids = list(dict.fromkeys(ds.sample_ids))
    want = [scan_windows(assign_many(m, mat[5 * i:5 * i + 5])[None], 60, 1e-7,
                         m.anomalous_cluster, stop_early=False, sample_ids=[sid])[0]
            for i, sid in enumerate(ids)]
    hit = want[0]        # the injected sample; an early stop reads 3 windows
    assert (hit.first_anomalous_window, hit.windows_consumed, hit.speedup) == (2, 5, 1.0)
    detections_to_csv(want, tmp_path / "want.csv")
    assert det.read_bytes() == (tmp_path / "want.csv").read_bytes()
    for line in det.read_text().splitlines()[1:]:
        _, _, consumed, _, speedup = line.split(",")
        assert (consumed, speedup) == ("5", "1.0")


@pytest.mark.parametrize("fault", FAULT_NAMES)
def test_simulate_opamp_fault_sweep(tmp_path, fault):
    out = tmp_path / "sweep"
    rc = main(["simulate", "--circuit", "opamp", "--fault", fault,
               "--analysis", "dc_input_sweep", "--sweep-points", "50",
               "--out", str(out)])
    assert rc == 0
    assert len((out / "output.csv").read_text().splitlines()) == 51


def test_experiment_command(tmp_path, capsys):
    out = tmp_path / "exp"
    rc = main(["experiment", "--experiment", "IA", "--algorithm", "kmeans",
               "--samples-per-class", "10", "--seed", "1", "--out", str(out)])
    assert rc == 0
    table = capsys.readouterr().out
    assert "pll_frequency" in table
    report = (out / "report.csv").read_text().splitlines()
    assert report[0].startswith("signal,feature,accuracy_pct")
    assert len(report) == 13                       # header + 12 combinations


def test_bad_suite_entry_exits_two(tmp_path, capsys):
    cfg = tmp_path / "suite.json"
    for bad, key in [
            ({"experiment": "PA", "vref_params": {"bogus": 1}}, "vref_params"),
            ({"experiment": "IA", "algorithm": "birch",
              "birch_threshold": float("nan")}, "birch_threshold"),
            ({"experiment": "IA", "algorithm": "birch", "birch_threshold": -1.0},
             "birch_threshold"),
            ({"experiment": "IA", "algorithm": "birch", "birch_branching": 1},
             "birch_branching"),
            ({"experiment": "OmBoth", "measurement_noise": -0.1},
             "measurement_noise"),
            ({"experiment": "OmBoth", "jitter_gain": -1.0}, "jitter_gain"),
            ({"experiment": "KStage", "jitter_offset": -0.0}, "jitter_offset")]:
        cfg.write_text(json.dumps({"experiments": [
            {"experiment": "IA", "n_samples_per_class": 10}, bad]}))
        assert main(["suite", "--config", str(cfg)]) == 2
        assert key in capsys.readouterr().err
    # defaults that are not an object, entries that are not a list of objects
    for doc, key in [
            ({"defaults": [1], "experiments": [{"experiment": "IA"}]}, "defaults"),
            ({"experiments": [1]}, "experiments"),
            ({"experiments": [{"experiment": "IA"}, "PA"]}, "experiments"),
            ({"experiments": {"experiment": "IA"}}, "experiments"),
            ({"experiments": "IA"}, "experiments"),
            ([[{"experiment": "IA"}]], "experiments")]:
        cfg.write_text(json.dumps(doc))
        assert main(["suite", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("amsdetect: error: ") and key in err, doc


_HUGE = 10 ** 400   # a JSON integer beyond the float and index ranges


@pytest.mark.parametrize("entry, key", [
    ({"experiment": "IA", "duration": _HUGE}, "duration"),
    ({"experiment": "IA", "noise_std": _HUGE}, "noise_std"),
    ({"experiment": "OmBoth", "jitter_gain": _HUGE}, "jitter_gain"),
    ({"experiment": "IA", "vref_params": {"input_amplitude": _HUGE}}, "vref_params"),
    ({"experiment": "PPA", "window_k": _HUGE}, "window_k"),
    ({"experiment": "IA", "n_samples": _HUGE}, "n_samples"),
    ({"experiment": "IA", "n_samples_per_class": _HUGE}, "n_samples_per_class"),
    ({"experiment": "OmBoth", "analysis": "dc_input_sweep", "sweep_points": _HUGE},
     "sweep_points"),
    ({"experiment": "KStage", "kstage_k": _HUGE}, "kstage_k"),
])
def test_oversized_integer_config_values_exit_two(tmp_path, capsys, entry, key):
    """Refused by the config check, not by an OverflowError where the value
    is first used."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_samples_per_class": 10, **entry}))
    assert main(["experiment", "--config", str(cfg)]) == 2
    assert f"(config key: {key})" in capsys.readouterr().err


@pytest.mark.parametrize("entry, tap, key", [
    ({"experiment": "TA", "vref_params": {"output_gain": 1e308}}, "output", "vref_params"),
    ({"experiment": "TA", "vref_params": {"trig_gain": 1e308}}, "trig", "vref_params"),
    ({"experiment": "PA", "vref_params": {"pll_deviation_gain": 1e308}}, "pll_intensity",
     "vref_params"),
    ({"experiment": "TA", "noise_std": 1e308}, "input", "noise_std"),
    ({"experiment": "Open", "measurement_noise": 1e308}, "output", "measurement_noise"),
])
def test_simulation_overflow_names_its_tap_and_key(tmp_path, capsys, entry, tap, key):
    """A finite config value that overflows inside the simulation exits 2
    naming the tap that overflowed and a key the user can set."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_samples_per_class": 10, **entry}))
    assert main(["experiment", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        f"amsdetect: error: {tap} samples must be finite (config key: {key})\n")


@pytest.mark.parametrize("windows", [[0, 5], [0, 0], [1, 2], [0, 1, 1]])
def test_detect_refuses_windows_other_than_0_to_k_minus_1(tmp_path, capsys, windows):
    """A sample's windows are scanned in time order, so a gap or a repeat
    would renumber them; detect refuses the sample instead."""
    train, model = tmp_path / "train.csv", tmp_path / "km.json"
    train.write_text("sample_id,label,window_index,mean\n" + "".join(
        f"s{i},{i // 5},0,{0.1 * i + 0.05 * (i // 5)}\n" for i in range(10)))
    assert main(["fit", "--in", str(train), "--out", str(model)]) == 0
    data = tmp_path / "data.csv"
    data.write_text("sample_id,label,window_index,mean\nok,0,0,0.1\n" + "".join(
        f"bad,1,{w},0.9\n" for w in windows))
    capsys.readouterr()
    assert main(["detect", "--model", str(model), "--in", str(data),
                 "--samples-per-window", "10", "--sample-period", "1e-7"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("amsdetect: error: ") and "sample 'bad'" in err


@pytest.mark.skipif(not UTF8, reason="the sample ids are not ASCII")
@pytest.mark.parametrize("early_stop", [True, False])
def test_detect_regroups_shuffled_samples_like_detect_windowed(tmp_path, capsys,
                                                               early_stop):
    """detect reads a file's rows in any order: each sample (in order of
    first appearance) is scored on its own windows in window order, with
    however many windows it has, as ``detect_windowed`` scores it alone."""
    rng = np.random.default_rng(11)
    names = ["s1", "ünï-é", "trail\x00", "日本", "", "b\x00\x00", "a", "a\x00"]
    counts = [3, 1, 5, 3, 2, 5, 4, 2]
    ids = [s for s, k in zip(names, counts) for _ in range(k)]
    ds = Dataset(ids, [int(s < "b") for s in ids],
                 [w for k in counts for w in range(k)],
                 rng.normal(0.0, 1.0, (len(ids), 2)))
    data = tmp_path / "data.csv"
    dataset_to_csv(ds, ["mean", "slope"], data)
    _, back = dataset_from_csv(data)
    order = sorted(range(len(ds)), key=lambda i: (ids[i], ds.windows[i]))
    assert back.sample_ids == tuple(ids[i] for i in order)
    assert back.windows.tolist() == ds.windows[order].tolist()
    assert back.labels.tolist() == ds.labels[order].tolist()
    assert back.values.tolist() == [[float(f"{v:.12e}") for v in row]
                                    for row in ds.values[order].tolist()]

    head, *lines = data.read_text().splitlines()
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_text("\n".join([head, *rng.permutation(lines)]) + "\n")
    model, det = tmp_path / "model.json", tmp_path / "det.csv"
    assert main(["fit", "--in", str(shuffled), "--algorithm", "kmeans",
                 "--out", str(model)]) == 0
    capsys.readouterr()
    assert main(["detect", "--model", str(model), "--in", str(shuffled),
                 "--samples-per-window", "7", "--sample-period", "1e-6",
                 "--out", str(det), *([] if early_stop else ["--no-early-stop"])]) == 0
    out = capsys.readouterr().out.splitlines()

    m = load_model(model)
    _, rows = dataset_from_csv(shuffled)
    first_seen = list(dict.fromkeys(rows.sample_ids))
    assert first_seen != sorted(first_seen)
    want = []
    for sid in first_seen:
        idx = sorted((w, i) for i, (s, w) in enumerate(
            zip(rows.sample_ids, rows.windows.tolist())) if s == sid)
        mat = m.norm.apply(rows.values[[i for _, i in idx]])
        want.append(scan_windows(assign_many(m, mat)[None], 7, 1e-6, m.anomalous_cluster,
                                 stop_early=early_stop, sample_ids=[sid])[0])
    assert {r.windows_total for r in want} == set(counts)
    assert any(r.anomalous for r in want) and not all(r.anomalous for r in want)
    detections_to_csv(want, tmp_path / "want.csv")
    assert det.read_bytes() == (tmp_path / "want.csv").read_bytes()
    lines = [f"{r.sample_id or '<signal>'}: " + (
        "clean" if r.first_anomalous_window is None else
        f"window {r.first_anomalous_window} (latency {r.latency_seconds:.3e} s, "
        f"speedup {r.speedup:.2f}x)") for r in want]
    assert out[1:-1] == lines


# keys an out-of-memory size needs next to it
EXTRA = {"kstage_k": {"experiment": "KStage"},
         "sweep_points": {"experiment": "OmBoth", "analysis": "dc_input_sweep"}}


def _main_in_3_gib(*argv):
    """``amsdetect`` with ``argv``, run in a process whose address space is
    capped at 3 GiB."""
    pytest.importorskip("resource")
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))\n"
            "from amsdetect.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    src = str(pathlib.Path(amsdetect.__file__).parents[1])
    return subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})


def _experiment_in_3_gib(tmp_path, key, size):
    """``experiment --config`` with ``key`` set to ``size``, run in a
    process whose address space is capped at 3 GiB."""
    doc = {"experiment": "IA", **EXTRA.get(key, {}), key: size}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return _main_in_3_gib("experiment", "--config", str(path))


@pytest.mark.parametrize("key", ["kstage_k", "n_samples", "n_samples_per_class",
                                 "sweep_points"])
def test_out_of_memory_exits_two(tmp_path, key):
    """A size that passes validation but cannot be allocated ends in exit 2
    with one error line."""
    proc = _experiment_in_3_gib(tmp_path, key, 10**11)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("amsdetect: error: out of memory")
    assert proc.stderr.count("\n") == 1


def test_window_k_that_does_not_divide_exits_two(tmp_path):
    """window_k can be no larger than the signal it windows, so the size
    that runs out of memory elsewhere is refused by the config."""
    proc = _experiment_in_3_gib(tmp_path, "window_k", 10**11)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.endswith("(config key: window_k)\n")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("key", ["n_samples", "n_samples_per_class", "window_k",
                                 "sweep_points"])
def test_size_numpy_cannot_hold_exits_two(tmp_path, key):
    """A size whose array would exceed sys.maxsize bytes is refused by the
    config, naming the key, before numpy is asked for it."""
    proc = _experiment_in_3_gib(tmp_path, key, 2**62)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("amsdetect: error: ")
    assert proc.stderr.endswith(f"(config key: {key})\n")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("argv, code", [
    (["--circuit", "opamp", "--stim-amplitude", "1e308"], 0),
    (["--circuit", "opamp", "--stim-frequency", "inf"], 2),
    (["--circuit", "opamp", "--analysis", "dc_input_sweep",
      "--sweep-start=-1e308", "--sweep-stop=1e308"], 2),
    (["--noise-std", "1e305"], 2),
    (["--duration", "inf"], 2),
    (["--circuit", "opamp", "--stim-amplitude", "1e308", "--stim-dc", "1e308"], 2)])
def test_simulate_overflow_prints_no_numpy_warning(tmp_path, argv, code):
    """Overflow inside a simulation is silent: the output clips it (exit 0)
    or a check reports it in one error line that names a key (exit 2)."""
    proc = _main_in_3_gib("simulate", *argv, "--out", str(tmp_path / "sim"))
    assert proc.returncode == code, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    if code:
        # an infinite duration or frequency is refused before it reaches a simulation
        want = ("duration must be finite and > 0, got inf (config key: duration)"
                if "--duration" in argv else
                "stim_frequency must be finite, got inf (config key: stim_frequency)"
                if "--stim-frequency" in argv else
                "pll_frequency samples must be finite (config key: vref_params)"
                if "--noise-std" in argv else
                "stimulus samples must be finite (config key: stim_amplitude)"
                if "--stim-dc" in argv else
                "sweep from -1e+308 to 1e+308 overflows its span (config key: sweep_stop)")
        assert proc.stderr == f"amsdetect: error: {want}\n"


# measurement noise this large overflows the output's variance to inf
_OVERFLOWING_VARIANCE = {"experiment": "OmBoth", "circuit": "opamp",
                         "n_samples_per_class": 10, "n_samples": 200,
                         "measurement_noise": 1e200}


def test_normalizing_an_infinite_feature_prints_no_numpy_warning(tmp_path):
    """An infinite feature normalizes to NaN silently, which the matrix
    check then reports: the experiment fails that combination (exit 0) and
    ``fit`` refuses the dataset (exit 2)."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_OVERFLOWING_VARIANCE))
    data = tmp_path / "data.csv"
    data.write_text("sample_id,label,window_index,mean\n" + "".join(
        f"s{i},{i // 5},0,{'inf' if i == 3 else 0.1 * i}\n" for i in range(10)))
    for argv, code in [(["experiment", "--config", str(config)], 0),
                       (["fit", "--in", str(data), "--out", str(tmp_path / "m.json")], 2)]:
        proc = _main_in_3_gib(*argv)
        assert proc.returncode == code, proc.stderr
        assert "RuntimeWarning" not in proc.stderr


@pytest.mark.parametrize("algorithm", ["gmm", "kmeans"])
def test_fit_whose_seeding_overflows_exits_two_with_one_line(tmp_path, algorithm):
    """Finite rows whose squared distances overflow float64 refuse the
    k-means++ seeding: exit 2, one error line, no numpy warning."""
    data = tmp_path / "data.csv"
    values = ["-1e154", "-1", "1e154", "-1e-160", "0", "1e154", "1", "1e154"]
    data.write_text("sample_id,label,window_index,mean\n" + "".join(
        f"s{i},{i // 4},0,{v}\n" for i, v in enumerate(values)))
    out = tmp_path / "m.json"
    proc = _main_in_3_gib("fit", "--in", str(data), "--out", str(out), "--no-normalize",
                          "--seed", "49", "--algorithm", algorithm)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == ("amsdetect: error: cannot seed k centroids: "
                           "squared distances overflow float64\n")
    assert not out.exists()


def test_an_infinite_feature_fails_its_combination():
    """Under this suite's ``error::RuntimeWarning`` filter, too."""
    report = evaluate(ExperimentConfig.from_dict(_OVERFLOWING_VARIANCE))
    errors = {r.feature: r.error for r in report.rows}
    assert errors["variance"] == "dataset contains non-finite values"
    assert errors["mean"] is None


@pytest.mark.parametrize("key, argv", [
    ("n_samples", ["--n-samples", str(2**62)]),
    ("sweep_points", ["--circuit", "opamp", "--analysis", "dc_input_sweep",
                      "--sweep-points", str(2**62)])])
def test_simulate_size_numpy_cannot_hold_exits_two(tmp_path, key, argv):
    """``simulate`` refuses a signal or sweep row of more than sys.maxsize
    bytes as a config does, naming the size, and writes nothing."""
    out = tmp_path / "sim"
    proc = _main_in_3_gib("simulate", *argv, "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"amsdetect: error: {key} {2**62} implies")
    assert proc.stderr.endswith(f"(config key: {key})\n")
    assert proc.stderr.count("\n") == 1
    assert not out.exists()


_SWEEP = {"experiment": "OmBoth", "analysis": "dc_input_sweep"}


@pytest.mark.parametrize("argv, entry", [
    (["fit", "--algorithm", "birch", "--birch-branching", "1"], {"birch_branching": 1}),
    (["fit", "--algorithm", "birch", "--birch-threshold", "inf"],
     {"birch_threshold": float("inf")}),
    (["fit", "--algorithm", "spectral", "--spectral-sigma", "0"], {"spectral_sigma": 0.0}),
    (["simulate", "--circuit", "opamp", "--duration", "nan"], {"duration": float("nan")}),
    (["simulate", "--circuit", "opamp", "--n-samples", "1"], {"n_samples": 1}),
    (["featurize", "--features", "foo"], {"features": ["foo"]}),
    (["simulate", "--circuit", "opamp", "--analysis", "dc_input_sweep",
      "--sweep-start", "inf"], {**_SWEEP, "sweep_start": float("inf")}),
    (["simulate", "--circuit", "opamp", "--analysis", "dc_input_sweep",
      "--sweep-points", "1"], {**_SWEEP, "sweep_points": 1}),
])
def test_a_flag_and_its_config_key_print_one_error(tmp_path, capsys, argv, entry):
    """A CLI flag and the config key of the same name share one rule: the
    same bad value prints the same error line, naming that key."""
    data, wave = tmp_path / "data.csv", tmp_path / "wave.csv"
    data.write_text("sample_id,label,window_index,mean\n" + "".join(
        f"s{i},{i // 5},0,{0.1 * i + 0.05 * (i // 5)}\n" for i in range(10)))
    wave.write_text(WAVE)
    infile = {"fit": [str(data)], "featurize": [str(wave)]}.get(argv[0], [])
    assert main([*argv, *(["--in", *infile] if infile else []),
                 "--out", str(tmp_path / "out")]) == 2
    by_flag = capsys.readouterr().err
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiment": "IA", "n_samples_per_class": 10, **entry}))
    assert main(["experiment", "--config", str(config)]) == 2
    assert capsys.readouterr().err == by_flag
    key = next(k for k in entry if k not in _SWEEP)
    assert by_flag.startswith("amsdetect: error: ")
    assert by_flag.endswith(f"(config key: {key})\n")


@pytest.mark.parametrize("edit, key", [
    (["--noise-std", "nan"], "noise_std"),
    ({"noise_std": float("nan")}, "noise_std"),
    ({"vref_params": {"input_frequency": float("nan")}}, "input_frequency"),
    ({"vref_params": {"output_tau": float("nan")}}, "output_tau"),
])
def test_nan_chain_parameter_exits_two_naming_it(tmp_path, capsys, edit, key):
    """A NaN parameter of the reference chain is refused under its key, not
    reported as a waveform that is not finite."""
    if isinstance(edit, list):
        argv = ["simulate", *edit, "--out", str(tmp_path / "sim")]
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"experiment": "IA", "n_samples_per_class": 10,
                                      **edit}))
        argv = ["experiment", "--config", str(config)]
    assert main(argv) == 2
    assert capsys.readouterr().err.endswith(f"got nan (config key: {key})\n")


@pytest.mark.parametrize("entry, key", [
    ({"experiment": "PPA", "duration": 1e-323}, "duration"),
    ({"experiment": "OmBoth", "circuit": "opamp", "duration": 1e-323}, "duration"),
    ({"experiment": "IA", "vref_params": {"input_frequency": float("inf")}},
     "input_frequency"),
    ({"experiment": "IA", "vref_params": {"pll_multiplier": float("inf")}},
     "pll_multiplier"),
])
def test_chain_value_that_breaks_the_timebase_exits_two_naming_it(tmp_path, capsys,
                                                                   entry, key):
    """A sample period that underflows to 0 is refused under ``duration``,
    and an infinite carrier parameter under its own key, not reported as
    another key's fault or as a waveform that is not finite."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n_samples_per_class": 10, **entry}))
    assert main(["experiment", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("amsdetect: error: ") and err.count("\n") == 1
    assert err.endswith(f"(config key: {key})\n")


_VREF_KEYS = [f.name for f in fields(VrefConfig)]
_NUMERIC_KEYS = [(f.name, f.type.startswith("int")) for f in fields(ExperimentConfig)
                 if f.type.split(" ")[0] in ("int", "float")]
# the run that reads a key; every other key is read by an IPTPA run
_READER = {**dict.fromkeys(["measurement_noise", "jitter_gain", "jitter_offset", "stim_dc",
                            "stim_amplitude", "stim_frequency"], {"experiment": "OmBoth"}),
           **dict.fromkeys(["sweep_start", "sweep_stop", "sweep_points", "sweep_bias"],
                           {"experiment": "OmBoth", "analysis": "dc_input_sweep"}),
           "fault_temperature": {"experiment": "ParFault"},
           "kstage_k": {"experiment": "KStage"},
           "birch_branching": {"algorithm": "birch"},
           "birch_threshold": {"algorithm": "birch"},
           "spectral_sigma": {"algorithm": "spectral"}}
_SPECIAL = [float("nan"), float("inf"), float("-inf"), -1, 0]


@pytest.mark.parametrize("key, value", [
    (key, value) for key, integer in [*_NUMERIC_KEYS, *((k, False) for k in _VREF_KEYS)]
    for value in (_SPECIAL[3:] if integer else _SPECIAL)])
def test_a_special_value_is_refused_at_load_or_runs(tmp_path, capsys, key, value):
    """Every numeric key, ``vref_params`` entries included, given NaN, +-inf,
    -1 or 0: building a config refuses it under its key whatever the
    experiment, or no experiment refuses it; the run that reads it then
    exits 0, or exits 2 naming it, and only for a value the load refuses."""
    edit = {"vref_params": {key: value}} if key in _VREF_KEYS else {key: value}
    if key.startswith("sweep_"):
        edit["analysis"] = "dc_input_sweep"
    base = {"experiment": "IPTPA", "n_samples_per_class": 10, "n_samples": 300}
    refused = []
    for experiment in ("IPTPA", "OmBoth", "KStage"):
        try:
            ExperimentConfig.from_dict({**base, **edit, "experiment": experiment})
            refused.append(None)
        except ConfigurationError as exc:
            refused.append(exc.config_key)
    assert refused in ([None] * 3, [key] * 3)
    run = {**base, **_READER.get(key, {}), **edit}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(run))
    rc = main(["experiment", "--config", str(path), "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert rc in (0, 2), err
    if rc:
        assert err.endswith(f"(config key: {key})\n"), err
        with pytest.raises(ConfigurationError) as exc:
            ExperimentConfig.from_dict(run)
        assert exc.value.config_key == key


def test_experiment_flags_override_the_config_file_keys(tmp_path, capsys):
    """Flags lie over the keys the file holds; defaults the file does not
    set follow the experiment the flags name."""
    path = pathlib.Path(__file__).resolve().parents[1] / "configs" / "ppa-windowed-early.json"
    base = ["experiment", "--config", str(path), "--samples-per-class", "10"]
    assert main([*base, "--experiment", "OmBoth"]) == 0
    assert "experiment OmBoth on vref_components" in capsys.readouterr().out
    out = tmp_path / "ta"
    assert main([*base, "--experiment", "TA", "--out", str(out)]) == 0
    assert "experiment TA on vref_blocks" in capsys.readouterr().out
    rows = (out / "report.csv").read_text().splitlines()[1:]
    assert {row.split(",")[0] for row in rows} == {"output"}


def test_experiment_needs_a_name(capsys):
    assert main(["experiment", "--algorithm", "gmm"]) == 2
    assert "--experiment" in capsys.readouterr().err


def test_suite_and_report_commands(tmp_path, capsys):
    cfg = tmp_path / "suite.json"
    cfg.write_text(json.dumps({
        "defaults": {"n_samples_per_class": 10, "n_samples": 300, "seed": 2},
        "experiments": [
            {"experiment": "IA", "algorithm": "kmeans"},
            {"experiment": "PA", "algorithm": "gmm", "window_k": 5},
        ],
    }))
    out = tmp_path / "runs"
    rc = main(["suite", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    assert (out / "suite.csv").exists()
    assert (out / "report-000-IA.csv").exists()
    assert (out / "report-001-PA.csv").exists()
    capsys.readouterr()

    rc = main(["report", "--in", str(out / "suite.csv")])
    assert rc == 0
    pretty = capsys.readouterr().out
    assert "experiment" in pretty and "accuracy_pct" in pretty


def test_whole_signal_featurize_writes_extract_features(tmp_path):
    sim = tmp_path / "sim"
    assert main(["simulate", "--n-samples", "300", "--noise-std", "0.01",
                 "--seed", "4", "--out", str(sim)]) == 0
    taps = [sim / f"{name}.csv" for name in ("input", "trig", "output")]
    data = tmp_path / "data.csv"
    assert main(["featurize", "--in", *map(str, taps), "--label", "1",
                 "--out", str(data)]) == 0
    lines = data.read_text().splitlines()
    assert lines[0] == "sample_id,label,window_index,mean,variance,slope"
    assert len(lines) == 1 + len(taps)
    for path, line in zip(sorted(taps), lines[1:]):
        want = windowed_features(waveform_from_csv(path), 1)[0]
        assert line == f"{path.stem},1,0," + ",".join(f"{v:.12e}" for v in want)


def _drop(key):
    def edit(doc):
        del doc[key]
        return doc
    return edit


def _set(key, value):
    def edit(doc):
        doc[key] = value
        return doc
    return edit


def _spectral(train_rows, train_assignments):
    def edit(doc):
        doc.update(algorithm="spectral", train_rows=train_rows,
                   train_assignments=train_assignments)
        return doc
    return edit


@pytest.mark.parametrize("edit,message", [
    (lambda doc: [doc], "not an amsdetect-model file"),
    (_drop("mu_k"), "missing key 'mu_k'"),
    (_drop("algorithm"), "missing key 'algorithm'"),
    (_set("mu_k", "x"), "could not convert"),
    (_set("sigma_k", [["a"], ["b"]]), "could not convert"),
    (_set("norm", {"mins": [0.1]}), "missing key 'maxs'"),
    (_set("norm", [0.1, 0.9]), "list indices"),
    (_set("centroids", None), "needs centroids of shape (2, 1)"),
    (_set("centroids", [[0.1, 0.2, 0.3], [0.7, 0.8, 0.9]]),
     "needs centroids of shape (2, 1)"),
    (_set("algorithm", "gmm"), "needs weights of shape (2,)"),
    (_set("algorithm", "dbscan"), "unknown algorithm"),
    (_spectral([[0.1], [0.9]], [0, 1, 1]),
     "needs train_assignments of shape (2,)"),
    (_spectral([[0.1], [0.9]], [0, 5]), "cluster ids 0 and 1"),
    (_spectral([[0.1], [0.9]], [0.7, 1.7]),
     "train_assignments must hold integer cluster ids, got 0.7"),
    (_spectral([[0.1], [0.9]], [0, True]),
     "train_assignments must hold integer cluster ids, got True"),
    (_set("k", 3), "k must be 2"),
    (_set("anomalous_cluster", 5), "anomalous_cluster must be 0 or 1"),
    (_set("anomalous_cluster", 1.7),
     "anomalous_cluster must hold integer cluster ids, got 1.7"),
    (_set("anomalous_cluster", True),
     "anomalous_cluster must hold integer cluster ids, got True"),
    (_set("feature_names", 5), "feature_names must be a list, got 5"),
    (_set("feature_names", "mean"), "feature_names must be a list, got 'mean'"),
])
@pytest.mark.parametrize("command", ["detect", "select-centroids"])
def test_bad_model_file_exits_two(tmp_path, capsys, command, edit, message):
    """Malformed model files end in exit 2 with the reason, not a traceback."""
    data = tmp_path / "data.csv"
    data.write_text("sample_id,label,window_index,mean\n" + "".join(
        f"s{i},{i // 5},0,{0.1 * i + 0.05 * (i // 5)}\n" for i in range(10)))
    model = tmp_path / "model.json"
    assert main(["fit", "--in", str(data), "--algorithm", "kmeans",
                 "--out", str(model)]) == 0
    model.write_text(json.dumps(edit(json.loads(model.read_text()))))
    capsys.readouterr()
    args = (["--samples-per-window", "10", "--sample-period", "1e-6"]
            if command == "detect" else [])
    rc = main([command, "--model", str(model), "--in", str(data), *args,
               "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "model.json" in err and message in err


def _float_flags():
    """(subcommand, flag) for every ``type=float`` option of the parser."""
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    return [(name, opt.option_strings[0]) for name, p in sub.choices.items()
            for opt in p._actions if opt.type is float]


# Small valid commands per subcommand; each float flag runs on all of its
# subcommand's bases so that flags read only in one mode are reached too.
BASES = {
    "simulate": [["--n-samples", "100"],
                 ["--circuit", "opamp", "--n-samples", "100",
                  "--fault", "Parametric"],
                 ["--circuit", "opamp", "--analysis", "dc_input_sweep",
                  "--sweep-points", "10"],
                 ["--circuit", "opamp", "--analysis", "dc_temp_sweep",
                  "--sweep-points", "10"]],
    "inject": [["--in", "{wave}", "--mode", "random"],
               ["--in", "{wave}", "--mode", "periodic"]],
    "fit": [["--in", "{data}", "--algorithm", "birch"],
            ["--in", "{data}", "--algorithm", "spectral"]],
    "detect": [["--model", "{model}", "--in", "{data}",
                "--samples-per-window", "10", "--sample-period", "1e-6"]],
}


@pytest.fixture(scope="module")
def sweep_inputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sweep")
    assert main(["simulate", "--n-samples", "100", "--out", str(tmp)]) == 0
    data = tmp / "data.csv"
    data.write_text("sample_id,label,window_index,mean\n" + "".join(
        f"s{i},{i // 5},0,{0.1 * i + 0.05 * (i // 5)}\n" for i in range(10)))
    model = tmp / "model.json"
    assert main(["fit", "--in", str(data), "--out", str(model)]) == 0
    return {"wave": tmp / "input.csv", "data": data, "model": model}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # numpy on nan/inf math
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command,flag", _float_flags())
def test_non_finite_float_flags_never_traceback(tmp_path, sweep_inputs,
                                                command, flag, value):
    """Every float option given nan or +-inf exits 0 or 2, never raises."""
    out = tmp_path / ("out.json" if command == "fit" else "out")
    for base in BASES[command]:
        argv = [command, *(a.format(**sweep_inputs) for a in base),
                f"{flag}={value}", "--out", str(out)]
        assert main(argv) in (0, 2), argv


# ------------------------------------------------- lazy subcommand parser

_SUBPARSERS = next(a for a in build_parser()._actions
                   if a.dest == "command").choices


def _outcome(parse, argv, capsys):
    """(exit code or parsed Namespace, stdout, stderr) of ``parse(argv)``."""
    try:
        result = parse(argv)
    except SystemExit as exc:
        result = exc.code
    out = capsys.readouterr()
    return result, out.out, out.err


def _required_argv(p):
    """Values for every required option of subparser ``p``."""
    argv = []
    for a in p._actions:
        if a.required:
            argv += [a.option_strings[0], str(a.choices[0]) if a.choices else "1"]
    return argv


def _usage_argvs(command):
    """Argument lists that end in help or a usage error for ``command``."""
    p = _SUBPARSERS[command]
    argvs = [[command, "--help"], [command, "-h", "--bogus"],
             [command, "--bogus"], [command, "extra", *_required_argv(p)]]
    if _required_argv(p):
        argvs.append([command])
    for a in p._actions:
        if a.choices:
            argvs.append([command, a.option_strings[0], "zzz"])
        if a.type in (int, float):
            argvs.append([command, *_required_argv(p), a.option_strings[0], "abc"])
    return argvs


@pytest.mark.parametrize("command", list(_SUBPARSERS))
def test_lazy_parser_prints_what_the_full_tree_prints(tmp_path, monkeypatch,
                                                      capsys, command):
    """main builds one subparser, yet every usage error and help text, and
    its exit code, is that of a parse with the full tree."""
    monkeypatch.chdir(tmp_path)
    full = build_parser()
    for argv in _usage_argvs(command):
        want = _outcome(full.parse_args, argv, capsys)
        assert want[0] in (0, 1), argv
        assert _outcome(main, argv, capsys) == want, argv


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["frobnicate"], [],
                                  ["--bogus"], ["sim"]])
def test_top_level_help_and_errors_use_the_full_tree(capsys, argv):
    want = _outcome(build_parser().parse_args, argv, capsys)
    got = _outcome(main, argv, capsys)
    assert got == want and got[0] in (0, 1)
    text = got[1] + got[2]
    assert all(name in text for name in _SUBPARSERS)
    if argv == ["frobnicate"]:
        assert "invalid choice: 'frobnicate'" in got[2]


def test_lazy_parser_parses_valid_argv_like_the_full_tree(sweep_inputs, tmp_path):
    argvs = [[command, *(a.format(**sweep_inputs) for a in base),
              "--out", str(tmp_path / "out")]
             for command, bases in BASES.items() for base in bases]
    argvs += [[command, *_required_argv(p)] for command, p in _SUBPARSERS.items()]
    for argv in argvs:
        got, want = _parse(argv), build_parser().parse_args(argv)
        assert got == want and got.func is want.func, argv
