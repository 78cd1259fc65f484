"""Golden digests of one config per simulation path.

Reruns inside one process (criterion 9) cannot catch a change that alters
results for every run alike; these digests, committed from a known-good
tree, can.  Each config drives a different simulation path: the input, PLL
and output legs of the reference chain, windowed features, the component
opamp with a gain fault, the open-collapse transient, a temperature
excursion and the k-stage chain.

Each config has two digests: its per-combination report CSV and the raw
float64 bytes of every feature block the simulation feeds it.  The report
rounds accuracies to four decimals, so only the feature digest catches a
change in the last bit of a simulated sample.

Regenerate only when outputs change on purpose:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import pathlib
import tempfile

import pytest

from amsdetect import ExperimentConfig, evaluate, generate_bundles
from amsdetect.bench import report_to_csv

GOLDEN = pathlib.Path(__file__).parent / "golden" / "sim_paths.sha256"

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
    h = hashlib.sha256()
    for b in generate_bundles(_config(name)):
        for signal, block in b.signal_features.items():
            h.update(f"{b.sample_id}/{signal}".encode())
            h.update(block.tobytes())
    return h.hexdigest()


def _digests(tmp_dir: pathlib.Path) -> dict[str, str]:
    out = {}
    for name in CONFIGS:
        out[f"{name}.report"] = _report_digest(name, tmp_dir)
        out[f"{name}.features"] = _feature_digest(name)
    return out


def _read_golden() -> dict[str, str]:
    pairs = (line.split() for line in GOLDEN.read_text().splitlines() if line)
    return {name: digest for digest, name in pairs}


def test_itpa_golden_observes_the_output_stage():
    assert "output" in _config("ITPA").observed_signals


@pytest.mark.parametrize("name", list(CONFIGS))
def test_report_matches_golden_digest(name, tmp_path):
    assert _report_digest(name, tmp_path) == _read_golden()[f"{name}.report"]


@pytest.mark.parametrize("name", list(CONFIGS))
def test_features_match_golden_digest(name):
    assert _feature_digest(name) == _read_golden()[f"{name}.features"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = _digests(pathlib.Path(tmp))
    lines = [f"{d}  {key}\n" for key, d in digests.items()]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("".join(lines))
    print(f"wrote {GOLDEN}")
