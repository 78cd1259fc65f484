import gc
import json
import math
import pathlib
import tempfile
import tracemalloc
from dataclasses import asdict, fields, replace
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amsdetect import (ALL_EXPERIMENTS, BLOCK_EXPERIMENTS, AmsDetectError,
                       ConfigurationError,
                       ExperimentConfig, FAULT_EXPERIMENTS, FAULT_NAMES,
                       InputError,
                       SUITE_CSV_HEADER, WindowError, default_observed_signals,
                       evaluate,
                       generate_dataset, generate_features,
                       load_suite, permutation_accuracy, run_suite,
                       suite_to_csv)
from amsdetect import ALGORITHMS, as_matrix, bench, walk
from amsdetect.config import SIGNAL_ORDER, _read_json
from amsdetect.walk import _stream_states
from amsdetect.features import windowed_features
from amsdetect.inject import PointPeriodic, PointRandom
from oracles import (block_signals_reference, child_seed, combination_matrix_reference,
                     features_reference)


def test_experiment_registry_is_complete():
    assert len(ALL_EXPERIMENTS) == 20
    assert BLOCK_EXPERIMENTS["IA"] == (("InputA", "random"),)
    assert BLOCK_EXPERIMENTS["IPTPA"] == (("InputA", "random"),
                                          ("PllB", "periodic"),
                                          ("TrigC", "periodic"))
    assert FAULT_EXPERIMENTS["ParFault"] == "Parametric"
    assert set(FAULT_EXPERIMENTS.values()) <= set(FAULT_NAMES)
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
    # refused when the config is built, not when the walk builds the chain
    for gain in (0.5, float("nan"), float("inf")):
        with pytest.raises(ConfigurationError) as err:
            ExperimentConfig(experiment="KStage", kstage_gains=(gain, 2.0, 2.0))
        assert err.value.config_key == "kstage_gains"
    with pytest.raises(ConfigurationError):
        ExperimentConfig(experiment="IA", n_samples_per_class=5)
    for bad in [dict(experiment="PPA", observed_signals=("trig", "trig")),
                dict(experiment="IA", n_samples_per_class="x"),
                dict(experiment="IA", window_k="5"),
                dict(experiment="IA", observed_signals=5),
                dict(experiment="KStage", kstage_gains=["a", "b", "c"]),
                dict(experiment="IA", seed=1.5),
                dict(experiment="IA", seed=True),
                dict(experiment="IA", centroid_select=1),
                dict(experiment="IA", vref_params={"bogus": 1}),
                dict(experiment="IA", vref_params={"noise_std": "x"}),
                dict(experiment="IA", spectral_sigma=float("nan")),
                dict(experiment="IA", spectral_sigma=float("inf")),
                dict(experiment="IA", spectral_sigma=0.0)]:
        with pytest.raises(ConfigurationError):
            ExperimentConfig.from_dict(bad)
    for key, value in [("birch_threshold", float("nan")),
                       ("birch_threshold", float("inf")),
                       ("birch_threshold", 0.0), ("birch_threshold", -1.0),
                       ("birch_branching", 1), ("birch_branching", -3)]:
        with pytest.raises(ConfigurationError) as err:
            ExperimentConfig(experiment="IA", algorithm="birch", **{key: value})
        assert err.value.config_key == key
    # numpy's normal() refuses these scales: exit 2, not its ValueError
    for key in ("measurement_noise", "jitter_gain", "jitter_offset"):
        for value in (-0.1, -0.0, float("-inf")):
            with pytest.raises(ConfigurationError) as err:
                ExperimentConfig(experiment="OmBoth", **{key: value})
            assert err.value.config_key == key


def test_config_dict_round_trip():
    cfg = ExperimentConfig(experiment="IPPA", algorithm="birch", window_k=5,
                           seed=11, centroid_select=True)
    assert ExperimentConfig.from_dict(asdict(cfg)) == cfg
    with pytest.raises(ConfigurationError) as err:
        ExperimentConfig.from_dict({"experiment": "IA", "windows": 5})
    assert err.value.config_key == "windows"
    with pytest.raises(ConfigurationError):
        ExperimentConfig.from_dict({"algorithm": "gmm"})


def test_stream_states_are_stable_and_spread():
    ids = np.arange(50)
    assert list(_stream_states(3, 1, ids, 4)) == list(_stream_states(3, 1, ids, 4))
    states = {s["state"]["state"] for label in (0, 1)
              for s in _stream_states(0, label, ids, 0)}
    assert len(states) == 100
    streams = _stream_states(3, 1, ids, np.arange(2)[:, None])
    assert len(streams) == 100 and len(streams[50:60]) == 10
    assert list(streams[50:60]) == list(_stream_states(3, 1, ids[:10], 1))


@given(st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1]),
                 st.integers(0, 2**70 - 1)),
       st.integers(0, 1), st.integers(0, 10**5), st.integers(1, 40), st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_stream_states_match_default_rng(seed, label, first, count, leg):
    """Each index's stream is ``default_rng`` of numpy's
    SeedSequence([seed, label, i, leg]) hash, state for state, and a
    Generator set to it draws what that ``default_rng`` draws."""
    ids = np.arange(first, first + count)
    want = [np.random.default_rng(child_seed(seed, label, i, leg))
            for i in range(first, first + count)]
    states = _stream_states(seed, label, ids, leg)
    assert list(states) == [rng.bit_generator.state for rng in want]
    rng = np.random.default_rng(0)
    rng.bit_generator.state = states[-1]
    assert rng.normal(size=3).tobytes() == want[-1].normal(size=3).tobytes()


ROOT = pathlib.Path(__file__).resolve().parent.parent


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
    ds = generate_dataset(cfg)
    assert len(ds) == 100
    assert ds.sample_ids[0] == ds.sample_ids[4] == "clean-000"
    assert ds.sample_ids[50] == "anom-000"
    assert ds.labels.tolist() == [0] * 50 + [1] * 50
    assert ds.windows.tolist() == [0, 1, 2, 3, 4] * 20
    assert ds.values.tobytes() == feats.reshape(100, 6).tobytes()


def test_dataset_generation_is_deterministic():
    cfg = _fast_config()
    a = generate_dataset(cfg)
    b = generate_dataset(cfg)
    assert len(a) == len(b) == 20
    assert a.sample_ids == b.sample_ids
    assert a.values.tobytes() == b.values.tobytes()
    c = generate_dataset(_fast_config(seed=6))
    assert not np.array_equal(a.values, c.values)


def test_combinations_concatenate_signals_in_order(monkeypatch):
    """Each fit sees its dataset columns, signal-major, min-max normalized.

    The spy sits on the fit dispatcher, so GMM jobs, which it fits as
    lockstep lanes, are checked as well as jobs it passes to fit_model.
    """
    seen, fit = [], bench._fit_jobs

    def spy(jobs):
        seen.extend(as_matrix(prep.values[:, cols]) for prep, cols in jobs)
        return fit(jobs)

    monkeypatch.setattr(bench, "_fit_jobs", spy)
    for algorithm in ("kmeans", "gmm"):
        cfg = _fast_config(window_k=5, algorithm=algorithm)
        seen.clear()
        report = evaluate(cfg)
        data = generate_dataset(cfg).values
        n_feat = len(cfg.features)
        assert len(seen) == len(report.rows) == 12
        for mat, row in zip(seen, report.rows):
            sig_idx = [cfg.observed_signals.index(s) for s in row.signal.split("+")]
            feat_idx = (range(n_feat) if row.feature == "agg"
                        else [cfg.features.index(row.feature)])
            raw = data[:, [j * n_feat + f for j in sig_idx for f in feat_idx]]
            want = (raw - raw.min(0)) / (raw.max(0) - raw.min(0))
            assert mat.tobytes() == want.tobytes()


@cache
def _suite_full_prepared(seed):
    """suite-full's entries at ``seed``, prepared from one shared walk."""
    configs = [replace(c, seed=seed) for c in load_suite(ROOT / "configs" / "suite-full.json")]
    return [bench._prepare(c, f) for c, f in zip(configs, walk._Walk(configs).run())]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fit_jobs_match_fit_model_on_suite_full(seed):
    """``_fit_jobs`` fits suite-full's combinations of all four algorithms
    grouped across entries and combinations, k-means and GMM as lockstep
    lanes; each job's model has the bytes ``fit_model`` gives its matrix."""
    prepared = _suite_full_prepared(seed)
    assert {p.config.algorithm for p in prepared} == set(ALGORITHMS)
    jobs = [(p, cols) for p in prepared for *_, cols in p.combos]
    for (prep, cols), fit in zip(jobs, bench._fit_jobs(jobs)):
        cfg = prep.config
        try:
            want = bench.fit_model(cfg.algorithm, as_matrix(prep.values[:, cols]),
                                   seed=cfg.seed, birch_branching=cfg.birch_branching,
                                   birch_threshold=cfg.birch_threshold,
                                   spectral_sigma=cfg.spectral_sigma)
        except AmsDetectError as exc:
            assert fit == str(exc)
            continue
        for f in fields(want):
            got, exp = getattr(fit, f.name), getattr(want, f.name)
            assert (got is None) == (exp is None), f.name
            if exp is not None:
                assert np.asarray(got).tobytes() == np.asarray(exp).tobytes(), f.name


@pytest.mark.parametrize("seed", [0, 1])
def test_column_gathers_equal_the_per_combination_build(seed):
    """Normalizing an entry's columns once and gathering a combination's
    gives the bits of slicing its raw features and normalizing them."""
    configs = [replace(c, seed=seed) for c in load_suite(ROOT / "configs" / "suite-full.json")]
    for cfg, feats, prep in zip(configs, walk._Walk(configs).run(),
                                _suite_full_prepared(seed)):
        for sig_name, feat_name, cols in prep.combos:
            names = cfg.features if feat_name == "agg" else (feat_name,)
            want = combination_matrix_reference(cfg, feats, sig_name.split("+"), names)
            got = prep.values[:, cols]
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (cfg.experiment, sig_name, feat_name)


def test_fit_model_refuses_an_unknown_algorithm():
    mat = np.array([[0.0], [0.1], [0.9], [1.0]])
    with pytest.raises(ConfigurationError) as err:
        bench.fit_model("foo", mat, seed=0, birch_branching=16,
                        birch_threshold=0.05, spectral_sigma=0.3)
    assert err.value.config_key == "algorithm"
    with pytest.raises(ConfigurationError) as by_config:
        ExperimentConfig(experiment="IA", algorithm="foo")
    assert str(by_config.value) == str(err.value)


def test_anomalous_bundles_differ_from_clean():
    cfg = _fast_config()
    feats = generate_features(cfg)[0]
    clean, anom = feats[:10, 0, 0], feats[10:, 0, 0]     # pll_frequency
    # injected input spikes blow up the frequency-trace variance
    assert anom[:, 1].mean() > 1.001 * clean[:, 1].mean()


@pytest.mark.parametrize("experiment", list(BLOCK_EXPERIMENTS))
@pytest.mark.parametrize("observed", [None, SIGNAL_ORDER])
def test_block_bundles_match_simulate_then_inject(experiment, observed):
    """One walk down the chain gives the bytes of a block-by-block walk of
    each instance that injects at each block, then simulates the next."""
    cfg = _fast_config(experiment=experiment, observed_signals=observed)
    feats = generate_features(cfg)[0]
    assert feats.shape[2] == len(cfg.observed_signals)
    for i in range(feats.shape[0]):
        by_name = block_signals_reference(cfg, *divmod(i, cfg.n_samples_per_class))
        for j, s in enumerate(cfg.observed_signals):
            ref = windowed_features(by_name[s], 1, cfg.features)
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


def test_evaluate_windowed_assigns_once_per_combination(monkeypatch):
    """Detection scans the fit's own assignments; no instance is assigned
    a second time."""
    from amsdetect import earlydetect
    original, calls = bench.assign_many, []

    def counting(model, rows):
        calls.append(len(rows))
        return original(model, rows)

    monkeypatch.setattr(bench, "assign_many", counting)
    monkeypatch.setattr(earlydetect, "assign_many", counting)
    cfg = _fast_config(experiment="PPA", algorithm="gmm", window_k=5,
                       n_samples=300)
    report = evaluate(cfg)
    assert not any(r.error for r in report.rows)
    rows = 2 * cfg.n_samples_per_class * cfg.window_k
    assert calls == [rows] * len(report.rows)


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
    bad = _fast_config(experiment="OmBoth", measurement_noise=1e308)
    result = run_suite([good, bad])
    assert result.entries[0].report is not None
    assert result.entries[1].report is None
    assert result.entries[1].error == "output samples must be finite"
    path = tmp_path / "suite.csv"
    suite_to_csv(result, path)
    lines = path.read_text().splitlines()
    assert lines[0] == SUITE_CSV_HEADER
    assert len(lines) == 3
    assert lines[2].endswith(",,,,5")        # empty metrics on the failed row
    with pytest.raises(ConfigurationError):
        run_suite([])


@pytest.mark.parametrize("window_k", [7, 300])
def test_config_refuses_windows_the_walk_cannot_window(window_k):
    """300 samples do not divide into 7 windows, and 300 windows leave the
    slope one sample each: refused at construction, before any walk."""
    with pytest.raises(AmsDetectError) as err:
        ExperimentConfig(experiment="IA", n_samples=300, window_k=window_k)
    assert err.value.config_key == "window_k"


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
    cfg = ExperimentConfig.from_dict(_read_json(cfg_path))
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
        _read_json(broken)
    nan_sigma = tmp_path / "nan_sigma.json"    # json reads a bare NaN
    nan_sigma.write_text('{"experiment": "IA", "algorithm": "spectral", '
                         '"spectral_sigma": NaN}')
    with pytest.raises(ConfigurationError) as err:
        ExperimentConfig.from_dict(_read_json(nan_sigma))
    assert err.value.config_key == "spectral_sigma"


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


def _batch_case(data, experiment):
    """Config knobs that steer the batched simulator down different branches."""
    kw = dict(experiment=experiment, seed=data.draw(st.integers(0, 2**16)),
              n_samples_per_class=data.draw(st.integers(10, 13)),
              n_samples=data.draw(st.sampled_from([60, 96, 150])),
              window_k=data.draw(st.sampled_from([None, 1, 2, 3])),
              algorithm="kmeans")
    if experiment in BLOCK_EXPERIMENTS:
        kw["noise_std"] = data.draw(st.sampled_from([0.0, 0.02]))
        kw["observed_signals"] = data.draw(st.lists(
            st.sampled_from(SIGNAL_ORDER), min_size=1, max_size=5, unique=True))
        if data.draw(st.booleans()):
            kw["vref_params"] = {"output_tau": data.draw(st.floats(2e-7, 5e-6))}
    elif experiment in FAULT_EXPERIMENTS:
        kw["circuit"] = data.draw(st.sampled_from(["vref_components", "opamp"]))
        analyses = ["transient", "dc_input_sweep"]
        if experiment != "ParFault":
            analyses.append("dc_temp_sweep")
        kw["analysis"] = data.draw(st.sampled_from(analyses))
        kw["sweep_points"] = data.draw(st.sampled_from([12, 30]))
        kw["stim_amplitude"] = data.draw(st.floats(0.01, 0.5))
    else:
        k = data.draw(st.integers(1, 3))
        kw.update(kstage_k=k,
                  kstage_fault=data.draw(st.sampled_from(sorted(FAULT_NAMES))),
                  anomalous_stages=data.draw(st.none() | st.lists(
                      st.integers(0, k - 1), min_size=1, max_size=k, unique=True)),
                  stim_amplitude=data.draw(st.floats(0.01, 0.2)))
    return ExperimentConfig(**kw)


@pytest.mark.parametrize("experiment", ALL_EXPERIMENTS)
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_generate_features_matches_per_instance_reference(experiment, data):
    """The batched simulator gives every instance the bytes it gets alone."""
    cfg = _batch_case(data, experiment)
    feats, samples_per_window, sample_period = generate_features(cfg)
    ref, ref_spw, ref_dt = features_reference(cfg)
    assert feats.tobytes() == ref.tobytes()
    assert (samples_per_window, sample_period) == (ref_spw, ref_dt)


# finite values that overflow inside the walk
_NON_FINITE = [dict(experiment="TA", vref_params={"output_tau": 1e-300}),
               dict(experiment="Open", measurement_noise=1e308),
               dict(experiment="KStage", kstage_k=2, measurement_noise=1e308)]


@pytest.mark.parametrize("kw", _NON_FINITE)
def test_non_finite_simulation_raises_the_waveform_error(kw):
    """The walk names the tap that overflowed and the key that feeds it."""
    cfg = _fast_config(**kw)
    with pytest.raises(InputError, match="^output samples must be finite$") as err:
        generate_features(cfg)
    assert err.value.config_key == ("vref_params" if "vref_params" in kw
                                    else "measurement_noise")
    # the reference's loops over numpy scalars warn where the values overflow
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(InputError, match="samples must be finite$"):
        features_reference(cfg)


@pytest.mark.parametrize("kw, tap, key", [
    pytest.param(dict(experiment="IA", noise_std=1e305), "pll_frequency", "vref_params",
                 id="kw0"),
    pytest.param(dict(experiment="TA", vref_params={"output_gain": 1e308,
                                                    "output_level": 1e308}),
                 "output", "vref_params", id="kw1")])
def test_overflow_in_the_chain_is_the_waveform_error(kw, tap, key):
    """A PLL trace or an output-stage drive that overflows ends in the
    finite check of its tap, not in a numpy RuntimeWarning (an error under
    this suite's warning filter)."""
    with pytest.raises(InputError, match=f"^{tap} samples must be finite$") as err:
        generate_features(_fast_config(**kw))
    assert err.value.config_key == key


@pytest.mark.parametrize("kw", _NON_FINITE)
def test_the_walk_stops_at_its_first_error(kw):
    """A shared walk raises the first error of any config in it."""
    population_walk = walk._Walk([_fast_config(**kw), _fast_config()])
    with pytest.raises(InputError, match="^output samples must be finite$"):
        population_walk.run()


def test_suite_records_a_non_finite_simulation_against_its_entry():
    result = run_suite([_fast_config(**kw) for kw in _NON_FINITE] + [_fast_config()])
    assert [e.error for e in result.entries] == ["output samples must be finite"] * 3 + [None]
    assert result.entries[3].report is not None


def _entry_bytes(cfg, tmp_path, name):
    """(report CSV bytes or None, error) of one config evaluated alone."""
    try:
        report = evaluate(cfg)
    except AmsDetectError as exc:
        return None, str(exc)
    bench.report_to_csv(report, tmp_path / name)
    return (tmp_path / name).read_bytes(), None


def test_run_suite_equals_evaluate_per_config(tmp_path):
    """Sharing populations and fitting across entries changes no byte of
    any entry's report, and a failing entry fails with its alone error."""
    configs = ([_fast_config(**kw) for kw in _NON_FINITE] + [
        _fast_config(algorithm="gmm", window_k=5),
        _fast_config(algorithm="gmm", centroid_select=True),
        _fast_config(algorithm="gmm", experiment="PA", seed=3),
        _fast_config(algorithm="gmm", experiment="IPPA"),
        _fast_config(),
        _fast_config(algorithm="birch"),
        _fast_config(algorithm="spectral", window_k=5),
        _fast_config(algorithm="gmm", noise_std=1e305),     # fails in the chain
        # one ITPA population (and the clean one above) at n = 30 and 40,
        # with and without windows and the output, and failing at the output
        _fast_config(experiment="ITPA", n_samples_per_class=30),
        _fast_config(experiment="ITPA", n_samples_per_class=40, window_k=5,
                     observed_signals=("trig",)),
        _fast_config(experiment="ITPA", observed_signals=("output",),
                     vref_params={"output_tau": 1e-300}),
        _fast_config(experiment="IA", n_samples_per_class=40,
                     observed_signals=("pll_frequency", "output")),
        # one clean opamp population for two faults, and a third in their
        # lanes failing
        _fast_config(experiment="Open", n_samples_per_class=30),
        _fast_config(experiment="Short", n_samples_per_class=40, window_k=3),
        _fast_config(experiment="OmBoth", measurement_noise=1e308),
    ])
    result = run_suite(configs)
    alone = [_entry_bytes(c, tmp_path, f"alone-{i}.csv")
             for i, c in enumerate(configs)]
    assert [e.error for e in result.entries] == [err for _, err in alone]
    output, chain = "output samples must be finite", "pll_frequency samples must be finite"
    assert [err for _, err in alone][-8:] == [
        chain, None, None, output, None, None, None, output]
    for i, (entry, (want, _)) in enumerate(zip(result.entries, alone)):
        if want is None:
            assert entry.report is None
            continue
        bench.report_to_csv(entry.report, tmp_path / f"suite-{i}.csv")
        assert (tmp_path / f"suite-{i}.csv").read_bytes() == want
    suite_to_csv(result, tmp_path / "suite.csv")
    suite_to_csv(bench.SuiteResult([
        bench.SuiteEntry(c, None if err else evaluate(c), err)
        for c, (_, err) in zip(configs, alone)]), tmp_path / "alone.csv")
    assert (tmp_path / "suite.csv").read_bytes() == (tmp_path / "alone.csv").read_bytes()


_SMOKE = load_suite(ROOT / "configs" / "suite-smoke.json")


def _report_bytes(report) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "report.csv"
        bench.report_to_csv(report, path)
        return path.read_bytes()


@cache
def _smoke_alone(i: int) -> bytes:
    return _report_bytes(evaluate(_SMOKE[i]))


@settings(max_examples=8, deadline=None)
@given(picks=st.lists(st.integers(0, len(_SMOKE) - 1), min_size=1, max_size=5))
def test_suite_reports_do_not_depend_on_the_other_entries(picks):
    """Any subset of suite-smoke's entries, in any order and repeated, gives
    each entry the report bytes it gets alone."""
    result = run_suite([_SMOKE[i] for i in picks])
    assert [_report_bytes(e.report) for e in result.entries] == [
        _smoke_alone(i) for i in picks]


_NEAR_MISSES = [
    ("IA", "seed", 6), ("IA", "n_samples", 240), ("IA", "duration", 1.0e-5),
    ("IA", "noise_std", 0.03), ("TA", "vref_params", {"output_tau": 2.0e-6}),
    ("IA", "rate_pct", 1.0), ("IA", "amp_low", 1.5), ("IA", "amp_high", 6.0),
    ("PA", "threshold_frac", 0.8), ("PA", "delta_frac", 0.5), ("PA", "experiment", "PRA"),
    ("Short", "measurement_noise", 0.02), ("Short", "jitter_gain", 0.05),
    ("Short", "jitter_offset", 0.01), ("Short", "stim_dc", 0.01),
    ("Short", "stim_amplitude", 0.05), ("Short", "stim_frequency", 2.0e6),
    ("Short", "circuit", "opamp"), ("Short", "experiment", "OmNfet"),
    ("Open", "analysis", "dc_input_sweep"), ("ParFault", "fault_temperature", 160.0),
    ("KStage", "kstage_gains", (2.0, 3.0)), ("KStage", "anomalous_stages", (1,)),
    ("KStage", "kstage_fault", "Short"), ("KStage", "kstage_k", 3),
]


@pytest.mark.parametrize("experiment, key, value", _NEAR_MISSES)
def test_walk_shares_nothing_across_a_simulation_input(experiment, key, value):
    """Two entries that differ in one input of their simulation each get the
    features they get alone, so neither borrowed the other's population."""
    base = dict(experiment=experiment, kstage_k=2) if experiment == "KStage" else dict(
        experiment=experiment)
    configs = [_fast_config(**base), _fast_config(**{**base, key: value})]
    population_walk = walk._Walk(configs)
    population_walk.run()
    for cfg, feats in zip(configs, population_walk.feats):
        assert feats.tobytes() == generate_features(cfg)[0].tobytes()


_BLOCK_ENTRY = st.builds(
    lambda experiment, seed, n, k, signals: _fast_config(
        experiment=experiment, seed=seed, n_samples=60, n_samples_per_class=n, window_k=k,
        observed_signals=signals),
    st.sampled_from(sorted(BLOCK_EXPERIMENTS)), st.sampled_from([5, 6]), st.integers(10, 20),
    st.sampled_from([None, 2, 3, 5]),
    st.lists(st.sampled_from(SIGNAL_ORDER), min_size=1, max_size=5, unique=True))


@settings(max_examples=30, deadline=None)
@given(configs=st.lists(_BLOCK_ENTRY, min_size=1, max_size=6))
def test_walked_together_block_entries_get_the_bytes_they_get_alone(configs):
    """Block entries walked as prefix trees share input rows, stamps, PLL
    traces and lanes only where their simulations agree: whatever the mix
    of experiments, instance counts, windows and taps, each entry gets the
    features ``generate_features`` gives it alone."""
    alone = []
    for cfg in configs:
        try:
            alone.append(generate_features(cfg)[0].tobytes())
        except AmsDetectError:
            alone.append(None)
    population_walk = walk._Walk(configs)
    if None in alone:
        with pytest.raises(AmsDetectError):
            population_walk.run()
        return
    assert [f.tobytes() for f in population_walk.run()] == alone


def test_suite_simulates_each_population_once(monkeypatch):
    """Entries that share a population simulate it once, for the largest n
    among them, and populations of one class share their rows as a prefix
    tree: each input row is drawn, each stamped row stamped and each PLL
    trace run once per node.  Each time recursion runs ceil(columns / cap)
    lanes per group, cap being 2 x the group's largest n per class."""
    drawn, stepped, stamped, lowpass, simulated = [], [], [], [], []
    input_rows, chain_step, stamp_rows, lowpass_steps, simulate_columns, apply_fault = (
        walk._input_rows, walk._chain_step, walk._stamp_rows, walk._lowpass_steps,
        walk._simulate_columns, walk.apply_component_fault)

    def input_spy(cfg, carrier, streams):
        drawn.append(len(streams))
        return input_rows(cfg, carrier, streams)

    def step_spy(cfg, block, x, dt, clock):
        stepped.append((block, len(x)))
        return chain_step(cfg, block, x, dt, clock)

    def stamp_spy(x, legs):
        stamped.extend((type(kind), len(x)) for kind, _ in legs)
        return stamp_rows(x, legs)

    def lowpass_spy(buf, alpha, start=None):
        lowpass.append(buf.shape[1])
        return lowpass_steps(buf, alpha, start)

    def fault_spy(model, name, temperature):
        faulted = apply_fault(model, name, temperature)
        faulted.fault_tag = name
        return faulted

    def simulate_spy(chains, mode, stimulus):
        simulated.append([getattr(chain[0], "fault_tag", None) for chain in chains])
        return simulate_columns(chains, mode, stimulus)

    monkeypatch.setattr(walk, "_input_rows", input_spy)
    monkeypatch.setattr(walk, "_chain_step", step_spy)
    monkeypatch.setattr(walk, "_stamp_rows", stamp_spy)
    monkeypatch.setattr(walk, "_lowpass_steps", lowpass_spy)
    monkeypatch.setattr(walk, "_simulate_columns", simulate_spy)
    monkeypatch.setattr(walk, "apply_component_fault", fault_spy)
    configs = [_fast_config(experiment=e, n_samples_per_class=30 if e == "IPTPA" else 40)
               for e in ("IA", "PA", "PPA", "TA", "IPTPA", "OmBoth", "Open", "Short")]
    result = run_suite(configs)
    assert [e.error for e in result.entries] == [None] * len(configs)

    # one clean tree and one anomalous tree, each drawn once at n = 40,
    # not once per population (40 + 40 + 40 + 40 + 30 anomalous rows)
    assert sum(drawn) == 40 + 40
    # PLL traces: the clean input, and the anomalous input unstamped (PA =
    # PPA, TA) and stamped (IA, IPTPA)
    assert sum(n for block, n in stepped if block == "InputA") == 40 + 40 + 40
    # trig traces, one per leaf here: clean, PA/PPA, TA, IA and IPTPA
    assert sum(n for block, n in stepped if block == "PllB") == 4 * 40 + 30
    # IA and IPTPA share their input leg; PA = PPA and IPTPA stamp the PLL,
    # TA and IPTPA the trig
    assert sum(n for kind, n in stamped if kind is PointRandom) == 40
    assert sum(n for kind, n in stamped if kind is PointPeriodic) == 40 + 30 + 40 + 30
    # output lanes: clean (TA's 40 >= IPTPA's 30), TA and IPTPA anomalous
    assert lowpass == [80, 110 - 80] and len(lowpass) == math.ceil(110 / 80)
    # opamp lanes: one clean population for the three faults
    faults = [f for lane in simulated for f in lane]
    assert faults.count(None) == 40 and len(faults) == 40 + 3 * 40
    assert [len(lane) for lane in simulated] == [80, 80]


def test_suite_leaves_nothing_for_the_cycle_collector():
    """Failures cross the stages as messages, not exception objects.

    An exception kept with its traceback holds the frames that hold it, and
    through them every entry's features, until a full collection; over
    repeated suites that grew a process by about 0.4 MB per pass.
    """
    configs = [_fast_config(**kw) for kw in _NON_FINITE] + [
        _fast_config(algorithm="gmm")]
    run_suite(configs)
    gc.collect()
    gc.disable()
    try:
        run_suite(configs)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_generation_memory_is_one_time_major_buffer_plus_small_chunks(monkeypatch):
    """Only the output stage's (n_samples, 2n) buffer spans every instance.

    Measured on this config: 1.55 MB chunked, of which 0.96 MB is that
    buffer; 6.3 MB when every signal is held for all instances at once,
    which is what the second half checks the bound would catch.
    """
    cfg = ExperimentConfig(experiment="IPTPA", observed_signals=SIGNAL_ORDER,
                           n_samples_per_class=40, n_samples=1500)
    bound = 2 * cfg.n_samples * 2 * cfg.n_samples_per_class * 8
    generate_features(cfg)                     # warm caches outside the trace
    assert _traced_peak(lambda: generate_features(cfg)) < bound
    monkeypatch.setattr(walk, "_CHUNK", 2 * cfg.n_samples_per_class)
    assert _traced_peak(lambda: generate_features(cfg)) > bound


def test_suite_memory_holds_features_across_entries_not_waveforms(monkeypatch):
    """A suite's peak is one population walk or the fits, plus features.

    Populations are walked one lane group at a time, on a lane buffer no
    wider than the widest one an entry of the group gets alone, and fitted
    together, so at any moment the suite holds either about one entry's
    generation or one fit's buffers, plus the features of every entry (raw
    until the entry is prepared, normalized after, of the same size).
    Measured on these two entries: peak 1.57 MB against a bound of
    1.62 MB (generation 1.56 MB, fits 0.95 MB, features 0.06 MB).  Keeping
    the lane's 0.96 MB time-major buffer until the fits, as the second half
    does, crosses it.
    """
    configs = [ExperimentConfig(experiment=e, observed_signals=SIGNAL_ORDER,
                                n_samples_per_class=40, n_samples=1500, window_k=k)
               for e, k in (("IPTPA", None), ("IPPA", 5))]
    run_suite(configs)                         # warm caches outside the trace
    prepared = [bench._prepare(c) for c in configs]
    jobs = [(p, cols) for p in prepared for *_, cols in p.combos]
    bound = sum(p.values.nbytes for p in prepared) + max(
        max(_traced_peak(lambda: generate_features(c)) for c in configs),
        _traced_peak(lambda: bench._fit_jobs(jobs)))
    assert _traced_peak(lambda: run_suite(configs)) < bound

    kept, lowpass_steps = [], walk._lowpass_steps

    def keep_waveforms(buf, alpha, start=None):
        lowpass_steps(buf, alpha, start)
        kept.append(buf)

    monkeypatch.setattr(walk, "_lowpass_steps", keep_waveforms)
    assert _traced_peak(lambda: run_suite(configs)) > bound


def test_suite_full_peak_is_no_more_than_one_entry_at_a_time():
    """The paper's suite, walked by population, peaks no higher than the
    same suite simulated one entry at a time and then fitted and scored.

    Both peaks are set by the KStage entry's generation, plus features:
    1.672 MB shared against 1.685 MB one entry at a time, when measured.
    """
    configs = load_suite(ROOT / "configs" / "suite-full.json")

    def one_entry_at_a_time():
        prepared = [bench._prepare(c) for c in configs]
        fits = iter(bench._fit_jobs([(p, cols) for p in prepared for *_, cols in p.combos]))
        return [bench._score(p, [next(fits) for _ in p.combos]) for p in prepared]

    run_suite(configs)                         # warm caches outside the trace
    assert _traced_peak(lambda: run_suite(configs)) <= _traced_peak(one_entry_at_a_time)
