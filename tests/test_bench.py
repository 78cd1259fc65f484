import json

import numpy as np
import pytest

from amsdetect import (ALL_EXPERIMENTS, BLOCK_EXPERIMENTS, ConfigurationError,
                       ExperimentConfig, FAULT_EXPERIMENTS, SUITE_CSV_HEADER,
                       WindowError, default_observed_signals, evaluate,
                       generate_dataset, generate_features, load_config,
                       load_suite, permutation_accuracy, run_suite,
                       suite_to_csv)
from amsdetect import bench
from amsdetect.bench import SIGNAL_ORDER, _block_specs, _child_seed
from amsdetect.features import extract_features
from amsdetect.inject import inject_multipoint
from amsdetect.waveforms import VrefConfig, simulate_vref


def test_experiment_registry_is_complete():
    assert len(ALL_EXPERIMENTS) == 20
    assert BLOCK_EXPERIMENTS["IA"] == (("InputA", "random"),)
    assert BLOCK_EXPERIMENTS["IPTPA"] == (("InputA", "random"),
                                          ("PllB", "periodic"),
                                          ("TrigC", "periodic"))
    assert FAULT_EXPERIMENTS["ParFault"] == "Parametric"
    assert "KStage" in ALL_EXPERIMENTS


def test_default_observed_signals_follow_the_injection():
    assert default_observed_signals("IA") == ("pll_frequency", "pll_intensity")
    assert default_observed_signals("PPA") == ("trig",)
    assert default_observed_signals("TA") == ("output",)
    assert default_observed_signals("IPPA") == ("pll_frequency",
                                                "pll_intensity", "trig")
    assert default_observed_signals("OmBoth") == ("output",)
    assert default_observed_signals("KStage") == ("output",)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        ExperimentConfig(experiment="XYZ")
    with pytest.raises(ConfigurationError):
        ExperimentConfig(experiment="IA", circuit="opamp")
    with pytest.raises(ConfigurationError):
        ExperimentConfig(experiment="OmBoth", circuit="vref_blocks")
    with pytest.raises(ConfigurationError):
        ExperimentConfig(experiment="IA", algorithm="dbscan")
    with pytest.raises(ConfigurationError):
        ExperimentConfig(experiment="IA", features=("mean", "kurtosis"))
    with pytest.raises(ConfigurationError):
        ExperimentConfig(experiment="OmBoth", observed_signals=("trig",))
    with pytest.raises(ConfigurationError):
        ExperimentConfig(experiment="IA", window_k=0)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(experiment="ParFault", analysis="dc_temp_sweep")
    with pytest.raises(ConfigurationError):
        ExperimentConfig(experiment="KStage", kstage_k=2, kstage_gains=(2.0,))
    with pytest.raises(ConfigurationError):
        ExperimentConfig(experiment="KStage", kstage_k=2,
                         anomalous_stages=(3,))
    with pytest.raises(ConfigurationError):
        ExperimentConfig(experiment="IA", n_samples_per_class=5)


def test_config_dict_round_trip():
    cfg = ExperimentConfig(experiment="IPPA", algorithm="birch", window_k=5,
                           seed=11, centroid_select=True)
    back = ExperimentConfig.from_dict(cfg.to_dict())
    assert back == cfg
    with pytest.raises(ConfigurationError) as err:
        ExperimentConfig.from_dict({"experiment": "IA", "windows": 5})
    assert err.value.config_key == "windows"
    with pytest.raises(ConfigurationError):
        ExperimentConfig.from_dict({"algorithm": "gmm"})


def test_child_seed_is_stable_and_spread():
    assert _child_seed(3, 1, 4) == _child_seed(3, 1, 4)
    seeds = {_child_seed(0, label, idx, 0)
             for label in (0, 1) for idx in range(50)}
    assert len(seeds) == 100


def _fast_config(**kw):
    base = dict(experiment="IA", algorithm="kmeans", n_samples_per_class=10,
                n_samples=300, seed=5)
    base.update(kw)
    return ExperimentConfig(**base)


def test_bundles_are_balanced_and_named():
    cfg = _fast_config(window_k=5)
    feats, samples_per_window, sample_period = generate_features(cfg)
    # instances x windows x (pll_frequency, pll_intensity) x features
    assert feats.shape == (20, 5, 2, 3)
    assert feats.dtype == np.float64
    assert samples_per_window == 60
    assert sample_period == pytest.approx(20e-6 / 300)
    rows = generate_dataset(cfg)
    assert len(rows) == 100
    assert rows[0].sample_id == "clean-000"
    assert rows[50].sample_id == "anom-000"
    assert [r.label for r in rows] == [0] * 50 + [1] * 50
    assert [r.window_index for r in rows[:5]] == [0, 1, 2, 3, 4]


def test_dataset_generation_is_deterministic():
    cfg = _fast_config()
    a = generate_dataset(cfg)
    b = generate_dataset(cfg)
    assert len(a) == len(b) == 20
    for ra, rb in zip(a, b):
        assert ra.sample_id == rb.sample_id
        assert np.array_equal(ra.values, rb.values)
    c = generate_dataset(_fast_config(seed=6))
    assert not all(np.array_equal(ra.values, rc.values)
                   for ra, rc in zip(a, c))


def test_combinations_concatenate_signals_in_order(monkeypatch):
    """Each fit sees its dataset columns, signal-major, min-max normalized."""
    cfg = _fast_config(window_k=5)
    seen, fit = [], bench.fit_model

    def spy(algorithm, mat, **kw):
        seen.append(mat)
        return fit(algorithm, mat, **kw)

    monkeypatch.setattr(bench, "fit_model", spy)
    report = evaluate(cfg)
    data = np.stack([r.values for r in generate_dataset(cfg)])
    n_feat = len(cfg.features)
    assert len(seen) == len(report.rows) == 12
    for mat, row in zip(seen, report.rows):
        sig_idx = [cfg.observed_signals.index(s) for s in row.signal.split("+")]
        feat_idx = (range(n_feat) if row.feature == "agg"
                    else [cfg.features.index(row.feature)])
        raw = data[:, [j * n_feat + f for j in sig_idx for f in feat_idx]]
        want = (raw - raw.min(0)) / (raw.max(0) - raw.min(0))
        assert mat.tobytes() == want.tobytes()


def test_anomalous_bundles_differ_from_clean():
    cfg = _fast_config()
    feats = generate_features(cfg)[0]
    clean, anom = feats[:10, 0, 0], feats[10:, 0, 0]     # pll_frequency
    # injected input spikes blow up the frequency-trace variance
    assert anom[:, 1].mean() > 1.001 * clean[:, 1].mean()


@pytest.mark.parametrize("experiment", list(BLOCK_EXPERIMENTS))
@pytest.mark.parametrize("observed", [None, SIGNAL_ORDER])
def test_block_bundles_match_simulate_then_inject(experiment, observed):
    """One walk down the chain gives the bytes of simulate + inject."""
    cfg = _fast_config(experiment=experiment, observed_signals=observed)
    feats = generate_features(cfg)[0]
    assert feats.shape[2] == len(cfg.observed_signals)
    for i in range(feats.shape[0]):
        label, idx = divmod(i, cfg.n_samples_per_class)
        signals = simulate_vref(VrefConfig(noise_std=cfg.noise_std), cfg.n_samples,
                                cfg.duration, _child_seed(cfg.seed, label, idx, 0))
        if label == 1:
            signals, _ = inject_multipoint(signals, _block_specs(cfg, label, idx))
        by_name = signals.as_dict()
        for j, s in enumerate(cfg.observed_signals):
            ref = extract_features(by_name[s], cfg.features)[None, :]
            assert feats[i, :, j].tobytes() == ref.tobytes()


def test_permutation_accuracy_best_of_two_mappings():
    labels = np.array([0, 0, 0, 1, 1, 1])
    acc, bad, conf = permutation_accuracy(labels, np.array([0, 0, 0, 1, 1, 1]))
    assert acc == 1.0 and bad == 1
    assert conf == (3, 0, 0, 3)
    acc, bad, conf = permutation_accuracy(labels, np.array([1, 1, 1, 0, 0, 0]))
    assert acc == 1.0 and bad == 0
    assert conf == (3, 0, 0, 3)
    acc, bad, conf = permutation_accuracy(labels, np.array([0, 0, 1, 1, 1, 1]))
    assert acc == pytest.approx(5 / 6)
    assert conf == (2, 1, 0, 3)
    # flipping every assignment never changes the score
    rng = np.random.default_rng(0)
    asg = rng.integers(0, 2, 6)
    assert permutation_accuracy(labels, asg)[0] == \
        permutation_accuracy(labels, 1 - asg)[0]


def test_evaluate_produces_all_combinations():
    cfg = _fast_config()
    report = evaluate(cfg)
    names = [(r.signal, r.feature) for r in report.rows]
    # 2 signals x (3 features + agg) + cross-signal x (3 features + agg)
    assert len(names) == 12
    assert ("pll_frequency", "variance") in names
    assert ("pll_frequency+pll_intensity", "agg") in names
    assert report.best.accuracy_pct >= 90.0
    assert report.best.error is None


def test_evaluate_windowed_reports_detection_stats():
    cfg = _fast_config(experiment="PPA", algorithm="gmm", window_k=5,
                       n_samples=300)
    report = evaluate(cfg)
    best = report.best
    assert best.detect_rate is not None
    assert best.detect_rate > 0.5
    assert best.mean_speedup >= 1.0


def _scores(report):
    return [(r.signal, r.feature, None if r.error else r.accuracy_pct,
             r.tn, r.fp, r.fn, r.tp, r.error) for r in report.rows]


@pytest.mark.parametrize("experiment", ["IA", "PPA", "OmBoth", "KStage",
                                        "ITPA", "Open"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_single_window_scores_like_whole_signal(experiment, seed):
    """With one window per instance, the per-instance verdict is the row's."""
    kw = dict(experiment=experiment, seed=seed)
    if experiment == "KStage":
        kw["kstage_k"] = 2
    whole = evaluate(_fast_config(**kw))
    single = evaluate(_fast_config(window_k=1, **kw))
    assert _scores(single) == _scores(whole)


def test_evaluate_rejects_impossible_windowing():
    with pytest.raises(WindowError):
        evaluate(_fast_config(window_k=7))    # 300 % 7 != 0


def test_suite_records_failures_and_continues(tmp_path):
    good = _fast_config()
    bad = _fast_config(window_k=7)
    result = run_suite([good, bad])
    assert result.entries[0].report is not None
    assert result.entries[1].report is None
    assert "window" in result.entries[1].error
    path = tmp_path / "suite.csv"
    suite_to_csv(result, path)
    lines = path.read_text().splitlines()
    assert lines[0] == SUITE_CSV_HEADER
    assert len(lines) == 3
    assert lines[2].endswith(",,,,5")        # empty metrics on the failed row
    with pytest.raises(ConfigurationError):
        run_suite([])


def test_suite_csv_is_reproducible(tmp_path):
    cfgs = [_fast_config(), _fast_config(experiment="PA", algorithm="gmm")]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    suite_to_csv(run_suite(cfgs), p1)
    suite_to_csv(run_suite(cfgs), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_config_and_suite(tmp_path):
    cfg_path = tmp_path / "one.json"
    cfg_path.write_text(json.dumps(
        {"experiment": "TA", "algorithm": "birch", "seed": 3}))
    cfg = load_config(cfg_path)
    assert cfg.experiment == "TA" and cfg.algorithm == "birch"

    suite_path = tmp_path / "suite.json"
    suite_path.write_text(json.dumps({
        "defaults": {"n_samples_per_class": 12, "algorithm": "gmm"},
        "experiments": [{"experiment": "IA"},
                        {"experiment": "PA", "algorithm": "kmeans"}],
    }))
    cfgs = load_suite(suite_path)
    assert [c.experiment for c in cfgs] == ["IA", "PA"]
    assert cfgs[0].n_samples_per_class == 12
    assert cfgs[0].algorithm == "gmm"
    assert cfgs[1].algorithm == "kmeans"

    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps([{"experiment": "IA"}]))
    assert len(load_suite(bare)) == 1

    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"experiments": []}))
    with pytest.raises(ConfigurationError):
        load_suite(empty)
    broken = tmp_path / "broken.json"
    broken.write_text("{nope")
    with pytest.raises(ConfigurationError):
        load_config(broken)


def test_component_experiments_run_on_both_circuits():
    for circuit in ("vref_components", "opamp"):
        cfg = ExperimentConfig(experiment="Short", circuit=circuit,
                               algorithm="kmeans", n_samples_per_class=10,
                               n_samples=200, seed=1)
        report = evaluate(cfg)
        assert report.best.accuracy_pct == 100.0


def test_open_fault_sweep_analysis():
    cfg = ExperimentConfig(experiment="Open", analysis="dc_input_sweep",
                           algorithm="kmeans", n_samples_per_class=10, seed=2)
    report = evaluate(cfg)
    assert report.best.accuracy_pct == 100.0
