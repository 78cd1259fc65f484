"""End-to-end checks of the command-line pipeline.

Everything goes through ``cli.main`` with an explicit argv, so these tests
exercise the same code path as the console script without spawning processes.
"""

import json

import pytest

from amsdetect.cli import main
from amsdetect.cluster import load_model


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
    rc = main(["simulate", "--circuit", "opamp", "--n-samples", "0",
               "--out", str(tmp_path / "y")])
    assert rc == 2
    assert "n_samples" in capsys.readouterr().err


WAVE = "t,value\n0.0,1.0\n1.0e-8,2.0\n2.0e-8,3.0\n"
DATA = "sample_id,label,window_index,mean\na,0,0,0.5\nb,1,0,0.7\n"


@pytest.mark.parametrize("command,text,message", [
    ("inject", WAVE.replace("2.0\n", "two\n"), "'t,value' numbers"),
    ("inject", WAVE.replace("2.0\n", "2.0,9\n"), "'t,value' numbers"),
    ("inject", WAVE.replace("2.0e-8", "5.0e-8"), "not uniformly spaced"),
    ("fit", DATA.replace("b,1,0,0.7", "b,1,0"), "fields"),
    ("fit", DATA.replace("b,1,", "b,x,"), "invalid literal"),
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


def test_simulate_opamp_fault_sweep(tmp_path):
    out = tmp_path / "sweep"
    rc = main(["simulate", "--circuit", "opamp", "--fault", "Short",
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
