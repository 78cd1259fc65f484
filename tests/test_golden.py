"""Golden digests of one config per simulation path.

Reruns inside one process (criterion 9) cannot catch a change that alters
results for every run alike; these digests, committed from a known-good
tree, can.  Each config drives a different simulation path: the input, PLL
and output legs of the reference chain, windowed features, the component
opamp with a gain fault, the open-collapse transient, a temperature
excursion and the k-stage chain.  The rest reach the corners of the
batched simulator: a k-stage chain whose Open fault lands on either stage
(collapse and slew columns in one stage), both DC sweeps, the bare
``opamp`` circuit, a noiseless input and a windowed chain with overridden
reference parameters.  The last is the benchmark's early-detection workload
at full size: 200 instances of 20 windows on three taps.

Each config has two digests: its per-combination report CSV and the raw
float64 bytes of every (instance, signal) feature block the simulation
feeds it.  The report rounds accuracies to four decimals, so only the
feature digest catches a change in the last bit of a simulated sample.

A second file pins whole suites: the dataset CSV that ``generate_dataset``
gives for each ``suite-smoke`` entry, and the ``suite-full`` summary CSV
with every per-entry report.

A third pins every file a small command-line pipeline writes: the waveform,
injection-record, dataset, model and detection formats, byte for byte.

A fourth pins the model files of the two fits with the most hand-built
arithmetic, BIRCH's clustering-feature tree and spectral's in-place
Laplacian and row-blocked distances, and of their centroid refinement.  The
data has the benchmark's fit-sweep shape: windowed IPPA on the input,
pll_intensity and trig taps, normalized, with seeded class-balanced subsets
of whole instances at 200 and 800 rows (2,000 would spend seconds in
``eigh``).  Spectral's model also assigns all 2,000 rows, which takes each
one's nearest training row at a nonzero distance.

Regenerate only when outputs change on purpose:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import pathlib
import tempfile

import pytest

import numpy as np

from amsdetect import (ExperimentConfig, as_matrix, assign_many,
                       dataset_to_csv, evaluate, fit_birch, fit_spectral,
                       generate_dataset, generate_features, labels_array,
                       load_suite, normalize_dataset, refine_model, run_suite,
                       save_model, suite_to_csv)
from amsdetect.bench import _sample_id, report_to_csv
from amsdetect.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "sim_paths.sha256"
SUITE_GOLDEN = ROOT / "tests" / "golden" / "suites.sha256"
CLI_GOLDEN = ROOT / "tests" / "golden" / "cli_files.sha256"
FIT_GOLDEN = ROOT / "tests" / "golden" / "cluster_fits.sha256"

CONFIGS = {
    "IA": dict(experiment="IA", algorithm="kmeans"),
    "ITPA": dict(experiment="ITPA", algorithm="gmm"),
    "PPA": dict(experiment="PPA", algorithm="gmm", window_k=5),
    "OmBoth": dict(experiment="OmBoth", algorithm="birch"),
    "Open": dict(experiment="Open", algorithm="kmeans"),
    "ParFault": dict(experiment="ParFault"),
    "KStage": dict(experiment="KStage", kstage_k=2),
    "KStageOpen": dict(experiment="KStage", kstage_k=2, kstage_fault="Open"),
    "OmNfetInputSweep": dict(experiment="OmNfet", analysis="dc_input_sweep"),
    "OmPfetTempSweep": dict(experiment="OmPfet", analysis="dc_temp_sweep"),
    "OmBothOpamp": dict(experiment="OmBoth", circuit="opamp"),
    "IANoiseless": dict(experiment="IA", noise_std=0.0),
    "ITPAVref": dict(experiment="ITPA", window_k=3,
                     vref_params={"output_tau": 2.0e-6, "trig_gain": 0.6}),
    # the perfbench windowed_detect workload at seed 0, full size
    "WindowedDetect": dict(experiment="PPA", algorithm="gmm", window_k=20,
                           n_samples_per_class=100, n_samples=1500,
                           observed_signals=("pll_intensity", "trig", "output")),
}


def _config(name: str) -> ExperimentConfig:
    return ExperimentConfig(**{"n_samples_per_class": 10, "n_samples": 300,
                               **CONFIGS[name]})


def _report_digest(name: str, tmp_dir: pathlib.Path) -> str:
    path = tmp_dir / f"{name}.csv"
    report_to_csv(evaluate(_config(name)), path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _feature_digest(name: str) -> str:
    cfg = _config(name)
    feats = generate_features(cfg)[0]
    h = hashlib.sha256()
    for i in range(feats.shape[0]):
        sample_id = _sample_id(*divmod(i, cfg.n_samples_per_class))
        for j, signal in enumerate(cfg.observed_signals):
            h.update(f"{sample_id}/{signal}".encode())
            h.update(feats[i, :, j, :].tobytes())
    return h.hexdigest()


def _digests(tmp_dir: pathlib.Path) -> dict[str, str]:
    out = {}
    for name in CONFIGS:
        out[f"{name}.report"] = _report_digest(name, tmp_dir)
        out[f"{name}.features"] = _feature_digest(name)
    return out


def _read_golden(path=GOLDEN) -> dict[str, str]:
    pairs = (line.split() for line in path.read_text().splitlines() if line)
    return {name: digest for digest, name in pairs}


def _file_digest(path: pathlib.Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _smoke_dataset_digests(tmp_dir: pathlib.Path) -> dict[str, str]:
    out = {}
    configs = load_suite(ROOT / "configs" / "suite-smoke.json")
    for i, cfg in enumerate(configs):
        path = tmp_dir / f"dataset-{i:03d}-{cfg.experiment}.csv"
        dataset_to_csv(generate_dataset(cfg), None, path)
        out[f"smoke/{path.name}"] = _file_digest(path)
    return out


def _full_suite_digests(tmp_dir: pathlib.Path) -> dict[str, str]:
    result = run_suite(load_suite(ROOT / "configs" / "suite-full.json"))
    path = tmp_dir / "suite.csv"
    suite_to_csv(result, path)
    out = {"full/suite.csv": _file_digest(path)}
    for i, entry in enumerate(result.entries):
        path = tmp_dir / f"report-{i:03d}-{entry.config.experiment}.csv"
        if entry.report is None:
            path.write_text(f"error: {entry.error}")
        else:
            report_to_csv(entry.report, path)
        out[f"full/{path.name}"] = _file_digest(path)
    return out


def _cli_digests(tmp_dir: pathlib.Path) -> dict[str, str]:
    """Run simulate -> inject -> featurize -> fit -> select-centroids ->
    detect and digest every file the commands write, keyed by its path."""
    def run(*argv):
        assert main([str(a) for a in argv]) == 0, argv

    sim, amp, sweep = tmp_dir / "sim", tmp_dir / "opamp", tmp_dir / "sweep"
    rnd, per = tmp_dir / "inject-random", tmp_dir / "inject-periodic"
    data, det = tmp_dir / "data.csv", tmp_dir / "det.csv"
    model, refined = tmp_dir / "model.json", tmp_dir / "refined.json"
    run("simulate", "--n-samples", 300, "--noise-std", 0.01, "--seed", 3,
        "--out", sim)
    run("simulate", "--circuit", "opamp", "--fault", "OmPfet",
        "--n-samples", 300, "--out", amp)
    run("simulate", "--circuit", "opamp", "--analysis", "dc_temp_sweep",
        "--sweep-points", 40, "--out", sweep)
    run("inject", "--in", sim / "input.csv", "--mode", "random",
        "--rate-pct", 2, "--seed", 9, "--out", rnd)
    run("inject", "--in", sim / "trig.csv", "--mode", "periodic",
        "--out", per)
    # featurize names each sample by its file stem
    (rnd / "injected.csv").rename(rnd / "random.csv")
    (per / "injected.csv").rename(per / "periodic.csv")
    run("featurize", "--in", sim / "input.csv", sim / "trig.csv",
        rnd / "random.csv", per / "periodic.csv", "--windows", 5,
        "--out", data)
    run("fit", "--in", data, "--algorithm", "gmm", "--out", model)
    run("select-centroids", "--model", model, "--in", data, "--out", refined)
    run("detect", "--model", model, "--in", data, "--samples-per-window", 60,
        "--sample-period", repr(20e-6 / 300), "--out", det)
    return {f"cli/{p.relative_to(tmp_dir).as_posix()}": _file_digest(p)
            for p in sorted(tmp_dir.rglob("*")) if p.is_file()}


def _fit_sweep_subsets(seed: int = 7, windows: int = 10, per_class: int = 100):
    """The normalized windowed IPPA matrix and its 200- and 800-row subsets."""
    cfg = ExperimentConfig(experiment="IPPA", window_k=windows,
                           n_samples_per_class=per_class, seed=seed,
                           observed_signals=("input", "pll_intensity", "trig"))
    ds, _ = normalize_dataset(generate_dataset(cfg))
    mat = as_matrix(ds)
    assert np.array_equal(labels_array(ds)[::windows * per_class], [0, 1])
    rng = np.random.default_rng(seed)
    subsets = {}
    for n in (200, 800):
        take = n // windows // 2
        inst = np.concatenate([c * per_class + np.sort(
            rng.choice(per_class, take, replace=False)) for c in (0, 1)])
        subsets[n] = mat[(inst[:, None] * windows + np.arange(windows)).ravel()]
    return mat, subsets


def _cluster_fit_digests(tmp_dir: pathlib.Path) -> dict[str, str]:
    """save_model bytes of each fit and its refinement, keyed by cell."""
    mat, subsets = _fit_sweep_subsets()
    out = {}
    for n, sub in subsets.items():
        for name, model in (("birch", fit_birch(sub)),
                            ("spectral", fit_spectral(sub, 0.3, seed=7))):
            for key, m in ((f"{name}.n{n}", model),
                           (f"{name}.n{n}.refined", refine_model(model, sub))):
                path = tmp_dir / f"{key}.json"
                save_model(m, path)
                out[key] = _file_digest(path)
            if name == "spectral" and n == 200:
                ids = assign_many(model, mat)
                out["spectral.n200.assign_all"] = hashlib.sha256(
                    ids.astype(np.int64).tobytes()).hexdigest()
    return out


def test_itpa_golden_observes_the_output_stage():
    assert "output" in _config("ITPA").observed_signals


@pytest.mark.parametrize("name", list(CONFIGS))
def test_report_matches_golden_digest(name, tmp_path):
    assert _report_digest(name, tmp_path) == _read_golden()[f"{name}.report"]


@pytest.mark.parametrize("name", list(CONFIGS))
def test_features_match_golden_digest(name):
    assert _feature_digest(name) == _read_golden()[f"{name}.features"]


def test_smoke_datasets_match_golden_digests(tmp_path):
    assert _smoke_dataset_digests(tmp_path) == {
        k: v for k, v in _read_golden(SUITE_GOLDEN).items()
        if k.startswith("smoke/")}


def test_full_suite_matches_golden_digests(tmp_path):
    assert _full_suite_digests(tmp_path) == {
        k: v for k, v in _read_golden(SUITE_GOLDEN).items()
        if k.startswith("full/")}


def test_cli_files_match_golden_digests(tmp_path):
    assert _cli_digests(tmp_path) == _read_golden(CLI_GOLDEN)


def test_cluster_fits_match_golden_digests(tmp_path):
    assert _cluster_fit_digests(tmp_path) == _read_golden(FIT_GOLDEN)


def _write(path: pathlib.Path, digests: dict[str, str]) -> None:
    path.parent.mkdir(exist_ok=True)
    path.write_text("".join(f"{d}  {key}\n" for key, d in digests.items()))
    print(f"wrote {path}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        _write(GOLDEN, _digests(tmp))
        _write(SUITE_GOLDEN, {**_smoke_dataset_digests(tmp),
                              **_full_suite_digests(tmp)})
        (tmp / "cli").mkdir()
        _write(CLI_GOLDEN, _cli_digests(tmp / "cli"))
        (tmp / "fits").mkdir()
        _write(FIT_GOLDEN, _cluster_fit_digests(tmp / "fits"))
