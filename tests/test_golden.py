"""Golden digests of one config per simulation path.

Reruns inside one process (criterion 9) cannot catch a change that alters
results for every run alike; these digests, committed from a known-good
tree, can.  Each config drives a different simulation path: the input, PLL
and output legs of the reference chain, windowed features, the component
opamp with a gain fault, the open-collapse transient, a temperature
excursion and the k-stage chain.

Each config has two digests: its per-combination report CSV and the raw
float64 bytes of every (instance, signal) feature block the simulation
feeds it.  The report rounds accuracies to four decimals, so only the
feature digest catches a change in the last bit of a simulated sample.

A second file pins whole suites: the dataset CSV that ``generate_dataset``
gives for each ``suite-smoke`` entry, and the ``suite-full`` summary CSV
with every per-entry report.

Regenerate only when outputs change on purpose:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import pathlib
import tempfile

import pytest

from amsdetect import (ExperimentConfig, dataset_to_csv, evaluate,
                       generate_dataset, generate_features, load_suite,
                       run_suite, suite_to_csv)
from amsdetect.bench import _sample_id, report_to_csv

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "sim_paths.sha256"
SUITE_GOLDEN = ROOT / "tests" / "golden" / "suites.sha256"

CONFIGS = {
    "IA": dict(experiment="IA", algorithm="kmeans"),
    "ITPA": dict(experiment="ITPA", algorithm="gmm"),
    "PPA": dict(experiment="PPA", algorithm="gmm", window_k=5),
    "OmBoth": dict(experiment="OmBoth", algorithm="birch"),
    "Open": dict(experiment="Open", algorithm="kmeans"),
    "ParFault": dict(experiment="ParFault"),
    "KStage": dict(experiment="KStage", kstage_k=2),
}


def _config(name: str) -> ExperimentConfig:
    return ExperimentConfig(**CONFIGS[name], n_samples_per_class=10,
                            n_samples=300)


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
