import gc
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amsdetect import (ALL_EXPERIMENTS, BLOCK_EXPERIMENTS, AmsDetectError,
                       ConfigurationError,
                       ExperimentConfig, FAULT_EXPERIMENTS, InputError,
                       SUITE_CSV_HEADER, WindowError, default_observed_signals,
                       evaluate,
                       generate_dataset, generate_features, load_config,
                       load_suite, permutation_accuracy, run_suite,
                       suite_to_csv)
from amsdetect import bench
from amsdetect.bench import SIGNAL_ORDER, _child_seed
from amsdetect.features import windowed_features
from oracles import block_signals_reference, features_reference


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
        seen.extend(prep.matrix(combo) for prep, combo in jobs)
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
    nan_sigma = tmp_path / "nan_sigma.json"    # json reads a bare NaN
    nan_sigma.write_text('{"experiment": "IA", "algorithm": "spectral", '
                         '"spectral_sigma": NaN}')
    with pytest.raises(ConfigurationError) as err:
        load_config(nan_sigma)
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
                  kstage_fault=data.draw(st.sampled_from(sorted(FAULT_EXPERIMENTS.values()))),
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


_NON_FINITE = [dict(experiment="TA", vref_params={"output_tau": 1e-300}),
               dict(experiment="Open", measurement_noise=float("inf")),
               dict(experiment="KStage", kstage_k=2, measurement_noise=float("inf"))]


@pytest.mark.parametrize("kw", _NON_FINITE)
def test_non_finite_simulation_raises_the_waveform_error(kw):
    cfg = _fast_config(**kw)
    with pytest.raises(InputError, match="^waveform samples must be finite$"):
        generate_features(cfg)
    # the reference's loops over numpy scalars warn where the values overflow
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(InputError, match="^waveform samples must be finite$"):
        features_reference(cfg)


def test_suite_records_a_non_finite_simulation_against_its_entry():
    result = run_suite([_fast_config(**kw) for kw in _NON_FINITE] + [_fast_config()])
    assert [e.error for e in result.entries] == ["waveform samples must be finite"] * 3 + [None]
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
    """Fitting across entries changes no byte of any entry's report."""
    configs = ([_fast_config(**kw) for kw in _NON_FINITE] + [
        _fast_config(algorithm="gmm", window_k=5),
        _fast_config(algorithm="gmm", centroid_select=True),
        _fast_config(algorithm="gmm", experiment="PA", seed=3),
        _fast_config(algorithm="gmm", experiment="IPPA"),
        _fast_config(),
        _fast_config(algorithm="birch"),
        _fast_config(algorithm="spectral", window_k=5),
        _fast_config(algorithm="gmm", window_k=7),     # fails: 300 % 7 != 0
    ])
    result = run_suite(configs)
    alone = [_entry_bytes(c, tmp_path, f"alone-{i}.csv")
             for i, c in enumerate(configs)]
    assert [e.error for e in result.entries] == [err for _, err in alone]
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
    monkeypatch.setattr(bench, "_CHUNK", 2 * cfg.n_samples_per_class)
    assert _traced_peak(lambda: generate_features(cfg)) > bound


def test_suite_memory_holds_features_across_entries_not_waveforms(monkeypatch):
    """A suite's peak is one entry's generation or the fits, plus features.

    Entries are simulated one after another and fitted together, so at any
    moment the suite holds either one entry's generation or one fit's
    buffers, plus the raw features of the entries simulated so far.
    Measured on these two entries: peak 1.59 MB against a bound of
    1.65 MB (generation 1.59 MB, fits 0.95 MB, features 0.06 MB).  Keeping
    each entry's 0.96 MB time-major buffer until the fits, as the second
    half does, crosses it.
    """
    configs = [ExperimentConfig(experiment=e, observed_signals=SIGNAL_ORDER,
                                n_samples_per_class=40, n_samples=1500, window_k=k)
               for e, k in (("IPTPA", None), ("IPPA", 5))]
    run_suite(configs)                         # warm caches outside the trace
    prepared = [bench._prepare(c) for c in configs]
    jobs = [(p, combo) for p in prepared for combo in p.combos]
    bound = sum(p.feats.nbytes for p in prepared) + max(
        max(_traced_peak(lambda: generate_features(c)) for c in configs),
        _traced_peak(lambda: bench._fit_jobs(jobs)))
    assert _traced_peak(lambda: run_suite(configs)) < bound

    kept, generate = [], bench.generate_features

    def keep_waveforms(cfg):
        kept.append(np.ones((cfg.n_samples, 2 * cfg.n_samples_per_class)))
        return generate(cfg)

    monkeypatch.setattr(bench, "generate_features", keep_waveforms)
    assert _traced_peak(lambda: run_suite(configs)) > bound
