"""Experiment harness: named experiments, dataset generation, evaluation.

An ExperimentConfig names one monitored circuit, one injection/fault recipe,
one algorithm and one featurization.  ``generate_features`` simulates its
balanced instances (n clean, then n anomalous) into one raw feature array
of shape (instances, windows, signals, features); labels and sample ids
follow from the instance index and ride along for scoring only -- fitting
never sees them.  ``evaluate`` slices that array once per signal/feature
combination, normalizes, fits and scores the slice, and ``run_suite`` maps
a list of configs to a combined report, continuing past per-entry failures.
``generate_dataset`` is the row adapter: the same array as one
``FeatureRow`` per (instance, window).

Reproducibility contract: everything derives from ``config.seed`` through
per-sample child seeds, so a (config, seed) pair yields byte-identical
datasets and reports.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .centroid import refine_model
from .cluster import (ClusterModel, as_matrix, assign_many, fit_birch, fit_gmm,
                      fit_kmeans, fit_spectral)
from .earlydetect import detect_windowed, latency_report
from .errors import AmsDetectError, ConfigurationError, FitError
from .features import (FEATURE_NAMES, FeatureRow, NormalizationParams,
                       windowed_features)
from .inject import (AnomalySpec, ComponentFault, InjectionLocation,
                     PointPeriodic, PointRandom, _walk_chain,
                     apply_component_fault)
from .waveforms import (OpampModel, SweepSpec, VrefConfig, Waveform,
                        build_kstage, default_vref_component_model,
                        simulate_kstage, simulate_opamp, sine_stimulus,
                        vref_input_block)
# Unused here; perfbench/test_perfbench.py checks its tracer at this binding.
from .waveforms import simulate_vref  # noqa: F401

__all__ = [
    "BLOCK_EXPERIMENTS",
    "FAULT_EXPERIMENTS",
    "ALL_EXPERIMENTS",
    "ALGORITHMS",
    "ExperimentConfig",
    "ResultRow",
    "EvaluationReport",
    "SuiteEntry",
    "SuiteResult",
    "SUITE_CSV_HEADER",
    "default_observed_signals",
    "generate_features",
    "generate_dataset",
    "fit_model",
    "permutation_accuracy",
    "evaluate",
    "run_suite",
    "load_config",
    "load_suite",
    "report_to_csv",
    "report_table",
    "suite_to_csv",
    "suite_table",
]

# Injection legs per named block-level experiment: (location, mode).  The
# multipoint "periodic" family keeps random placement at the input leg;
# periodic placement applies to intermediate blocks.
BLOCK_EXPERIMENTS: dict[str, tuple[tuple[str, str], ...]] = {
    "IA": (("InputA", "random"),),
    "PA": (("PllB", "periodic"),),
    "PPA": (("PllB", "periodic"),),
    "TA": (("TrigC", "periodic"),),
    "PRA": (("PllB", "random"),),
    "IPPA": (("InputA", "random"), ("PllB", "periodic")),
    "ITPA": (("InputA", "random"), ("TrigC", "periodic")),
    "PTPA": (("PllB", "periodic"), ("TrigC", "periodic")),
    "IPTPA": (("InputA", "random"), ("PllB", "periodic"), ("TrigC", "periodic")),
    "IPRA": (("InputA", "random"), ("PllB", "random")),
    "ITRA": (("InputA", "random"), ("TrigC", "random")),
    "PTRA": (("PllB", "random"), ("TrigC", "random")),
    "IPTRA": (("InputA", "random"), ("PllB", "random"), ("TrigC", "random")),
}

# Component-fault experiments -> fault name understood by ComponentFault.
FAULT_EXPERIMENTS: dict[str, str] = {
    "OmBoth": "OmBoth",
    "OmPfet": "OmPfet",
    "OmNfet": "OmNfet",
    "ParFault": "Parametric",
    "Open": "Open",
    "Short": "Short",
}

ALL_EXPERIMENTS = tuple(BLOCK_EXPERIMENTS) + tuple(FAULT_EXPERIMENTS) + ("KStage",)
ALGORITHMS = ("kmeans", "gmm", "birch", "spectral")
SIGNAL_ORDER = ("input", "pll_frequency", "pll_intensity", "trig", "output")

_SUCCESSOR = {
    "InputA": ("pll_frequency", "pll_intensity"),
    "PllB": ("trig",),
    "TrigC": ("output",),
}


def default_observed_signals(experiment: str) -> tuple[str, ...]:
    """Signals observed by default: each injected block's immediate successor."""
    if experiment in BLOCK_EXPERIMENTS:
        picked = []
        for loc, _ in BLOCK_EXPERIMENTS[experiment]:
            picked.extend(_SUCCESSOR[loc])
        return tuple(s for s in SIGNAL_ORDER if s in picked)
    return ("output",)


def _default_circuit(experiment: str) -> str:
    if experiment in BLOCK_EXPERIMENTS:
        return "vref_blocks"
    if experiment in FAULT_EXPERIMENTS:
        return "vref_components"
    return "kstage"


@dataclass
class ExperimentConfig:
    """Full description of one experiment run.  All knobs have defaults.

    Seeds, sample counts, injection parameters and circuit knobs are exposed
    as flat keys so JSON config files stay trivially greppable.
    """

    experiment: str
    circuit: str | None = None
    algorithm: str = "gmm"
    features: tuple[str, ...] = FEATURE_NAMES
    observed_signals: tuple[str, ...] | None = None
    window_k: int | None = None
    centroid_select: bool = False
    sigma_scope: str = "global"
    n_samples_per_class: int = 40
    seed: int = 0
    n_samples: int = 1500
    duration: float = 20.0e-6
    noise_std: float = 0.02
    vref_params: dict = field(default_factory=dict)
    rate_pct: float = 0.5
    amp_low: float = 2.0
    amp_high: float = 5.0
    threshold_frac: float = 0.9
    delta_frac: float = 1.0
    fault_temperature: float = 150.0
    analysis: str = "transient"
    measurement_noise: float = 0.01
    jitter_offset: float = 0.005
    jitter_gain: float = 0.02
    stim_dc: float = 0.0
    stim_amplitude: float = 0.02
    stim_frequency: float = 1.0e6
    sweep_start: float | None = None
    sweep_stop: float | None = None
    sweep_points: int = 100
    sweep_bias: float = 0.05
    kstage_k: int = 3
    kstage_gains: tuple[float, ...] | None = None
    anomalous_stages: tuple[int, ...] | None = None
    kstage_fault: str = "OmBoth"
    birch_branching: int = 16
    birch_threshold: float = 0.05
    spectral_sigma: float = 0.3
    description: str = ""

    def __post_init__(self):
        if self.experiment not in ALL_EXPERIMENTS:
            raise ConfigurationError(f"unknown experiment {self.experiment!r}",
                                     config_key="experiment")
        if self.circuit is None:
            self.circuit = _default_circuit(self.experiment)
        legal = {"vref_blocks"} if self.experiment in BLOCK_EXPERIMENTS else (
            {"vref_components", "opamp"} if self.experiment in FAULT_EXPERIMENTS
            else {"kstage"})
        if self.circuit not in legal:
            raise ConfigurationError(
                f"experiment {self.experiment} runs on {sorted(legal)}, "
                f"not {self.circuit!r}", config_key="circuit")
        if self.algorithm not in ALGORITHMS:
            raise ConfigurationError(f"unknown algorithm {self.algorithm!r}",
                                     config_key="algorithm")
        self.features = tuple(self.features)
        for f in self.features:
            if f not in FEATURE_NAMES:
                raise ConfigurationError(f"unknown feature {f!r}",
                                         config_key="features")
        if len(set(self.features)) != len(self.features) or not self.features:
            raise ConfigurationError("features must be a non-empty set of "
                                     "distinct names", config_key="features")
        allowed_signals = (SIGNAL_ORDER if self.circuit == "vref_blocks"
                           else ("output",))
        if self.observed_signals is None:
            self.observed_signals = default_observed_signals(self.experiment)
        self.observed_signals = tuple(self.observed_signals)
        for s in self.observed_signals:
            if s not in allowed_signals:
                raise ConfigurationError(
                    f"signal {s!r} not observable on circuit {self.circuit} "
                    f"(allowed: {allowed_signals})", config_key="observed_signals")
        if not self.observed_signals:
            raise ConfigurationError("observed_signals must not be empty",
                                     config_key="observed_signals")
        if self.window_k is not None and self.window_k < 1:
            raise ConfigurationError("window_k must be >= 1", config_key="window_k")
        if self.sigma_scope not in ("global", "cluster"):
            raise ConfigurationError("sigma_scope must be 'global' or 'cluster'",
                                     config_key="sigma_scope")
        if self.n_samples_per_class < 10:
            raise ConfigurationError("n_samples_per_class must be >= 10",
                                     config_key="n_samples_per_class")
        if self.seed < 0:
            raise ConfigurationError("seed must be >= 0", config_key="seed")
        if self.n_samples < 2:
            raise ConfigurationError("n_samples must be >= 2", config_key="n_samples")
        if self.duration <= 0:
            raise ConfigurationError("duration must be > 0", config_key="duration")
        if self.analysis not in ("transient", "dc_input_sweep", "dc_temp_sweep"):
            raise ConfigurationError(f"unknown analysis {self.analysis!r}",
                                     config_key="analysis")
        if (self.experiment == "ParFault" and self.analysis == "dc_temp_sweep"):
            raise ConfigurationError(
                "a Parametric fault is invisible to a temperature sweep; "
                "use transient or dc_input_sweep", config_key="analysis")
        if self.sweep_points < 2:
            raise ConfigurationError("sweep_points must be >= 2",
                                     config_key="sweep_points")
        if self.kstage_k < 1:
            raise ConfigurationError("kstage_k must be >= 1", config_key="kstage_k")
        if self.kstage_gains is not None:
            self.kstage_gains = tuple(float(g) for g in self.kstage_gains)
            if len(self.kstage_gains) != self.kstage_k:
                raise ConfigurationError(
                    f"kstage_gains needs {self.kstage_k} entries",
                    config_key="kstage_gains")
        if self.anomalous_stages is not None:
            self.anomalous_stages = tuple(int(s) for s in self.anomalous_stages)
            if any(not 0 <= s < self.kstage_k for s in self.anomalous_stages):
                raise ConfigurationError("anomalous_stages out of range",
                                         config_key="anomalous_stages")
        if self.kstage_fault not in FAULT_EXPERIMENTS.values():
            raise ConfigurationError(f"unknown kstage_fault {self.kstage_fault!r}",
                                     config_key="kstage_fault")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        for key in data:
            if key not in known:
                raise ConfigurationError(f"unknown config key {key!r}",
                                         config_key=key)
        if "experiment" not in data:
            raise ConfigurationError("config needs an 'experiment' key",
                                     config_key="experiment")
        return cls(**data)

    def to_dict(self) -> dict:
        out = asdict(self)
        for key, val in out.items():
            if isinstance(val, tuple):
                out[key] = list(val)
        return out


def _child_seed(*parts: int) -> int:
    """Stable composite seed; collisions across distinct part tuples are moot."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint64)[0])


def _sample_id(label: int, idx: int) -> str:
    return f"{'anom' if label else 'clean'}-{idx:03d}"


def _block_specs(config: ExperimentConfig, label: int, idx: int) -> list[AnomalySpec]:
    """The experiment's injection legs for one instance; none when clean."""
    if label == 0:
        return []
    specs = []
    for leg, (loc, mode) in enumerate(BLOCK_EXPERIMENTS[config.experiment]):
        if mode == "random":
            kind = PointRandom(config.rate_pct, config.amp_low, config.amp_high)
        else:
            kind = PointPeriodic(config.threshold_frac, config.delta_frac)
        specs.append(AnomalySpec(kind, InjectionLocation(loc),
                                 _child_seed(config.seed, label, idx, 1 + leg)))
    return specs


def _block_signals(config: ExperimentConfig, label: int, idx: int) -> dict[str, Waveform]:
    vcfg = VrefConfig(**{"noise_std": config.noise_std, **config.vref_params})
    inp = vref_input_block(vcfg, config.n_samples,
                           config.duration / config.n_samples,
                           _child_seed(config.seed, label, idx, 0))
    return _walk_chain(vcfg, inp, _block_specs(config, label, idx),
                       with_output="output" in config.observed_signals)[0]


def _jittered(base: OpampModel, rng: np.random.Generator,
              config: ExperimentConfig) -> OpampModel:
    gain = base.open_loop_gain * max(0.05, 1.0 + rng.normal(0.0, config.jitter_gain))
    offset = base.offset + rng.normal(0.0, config.jitter_offset)
    return replace(base, open_loop_gain=gain, offset=offset)


def _component_fault(config: ExperimentConfig) -> ComponentFault:
    name = FAULT_EXPERIMENTS[config.experiment]
    temp = config.fault_temperature if name == "Parametric" else None
    return ComponentFault.from_name(name, temp)


def _stimulus(config: ExperimentConfig) -> Waveform:
    return sine_stimulus(config.n_samples, config.duration, config.stim_dc,
                         config.stim_amplitude, config.stim_frequency)


def _component_signals(config: ExperimentConfig, label: int, idx: int) -> dict[str, Waveform]:
    rng = np.random.default_rng(_child_seed(config.seed, label, idx, 0))
    base = (default_vref_component_model() if config.circuit == "vref_components"
            else OpampModel())
    model = _jittered(base, rng, config)
    if label == 1:
        model = apply_component_fault(model, _component_fault(config))
    if config.analysis == "transient":
        out = simulate_opamp(model, "transient", _stimulus(config))
    elif config.analysis == "dc_input_sweep":
        start = 0.0 if config.sweep_start is None else config.sweep_start
        stop = 0.2 if config.sweep_stop is None else config.sweep_stop
        out = simulate_opamp(model, "dc_input_sweep",
                             SweepSpec(start, stop, config.sweep_points,
                                       config.sweep_bias))
    else:
        start = -40.0 if config.sweep_start is None else config.sweep_start
        stop = 125.0 if config.sweep_stop is None else config.sweep_stop
        out = simulate_opamp(model, "dc_temp_sweep",
                             SweepSpec(start, stop, config.sweep_points,
                                       config.sweep_bias))
    return {"output": out.copy_with(
        out.samples + rng.normal(0.0, config.measurement_noise, len(out)))}


_KSTAGE_BASE = OpampModel(open_loop_gain=30.0, rail_low=-2.5, rail_high=2.5,
                          offset=0.01, slew_rate=5.0e7)


def _kstage_signals(config: ExperimentConfig, label: int, idx: int) -> dict[str, Waveform]:
    rng = np.random.default_rng(_child_seed(config.seed, label, idx, 0))
    base = _jittered(_KSTAGE_BASE, rng, config)
    gains = config.kstage_gains or (2.0,) * config.kstage_k
    if label == 1:
        stages = (config.anomalous_stages if config.anomalous_stages is not None
                  else (int(rng.integers(config.kstage_k)),))
        fault = ComponentFault.from_name(
            config.kstage_fault,
            config.fault_temperature if config.kstage_fault == "Parametric" else None)
        amp = build_kstage(base, config.kstage_k, list(gains), stages, fault)
    else:
        amp = build_kstage(base, config.kstage_k, list(gains))
    out = simulate_kstage(amp, _stimulus(config))
    return {"output": out.copy_with(
        out.samples + rng.normal(0.0, config.measurement_noise, len(out)))}


def generate_features(config: ExperimentConfig) -> tuple[np.ndarray, int, float]:
    """Raw features of every instance, n clean then n anomalous.

    :returns: (feats, samples_per_window, sample_period) where feats has
        shape (2n, windows, signals, features), signals in
        ``observed_signals`` order and features in ``features`` order; the
        two scalars come from the simulated waveforms
    """
    simulate = {"vref_blocks": _block_signals,
                "vref_components": _component_signals,
                "opamp": _component_signals,
                "kstage": _kstage_signals}[config.circuit]
    n, k = config.n_samples_per_class, config.window_k or 1
    feats = np.empty((2 * n, k, len(config.observed_signals), len(config.features)))
    for i in range(2 * n):
        by_name = simulate(config, *divmod(i, n))
        for j, s in enumerate(config.observed_signals):
            feats[i, :, j] = windowed_features(by_name[s], k, config.features)
    w = by_name[config.observed_signals[0]]
    return feats, len(w) // k, w.sample_period


def generate_dataset(config: ExperimentConfig) -> list[FeatureRow]:
    """The config's full dataset as rows: every observed signal x selected feature."""
    feats = generate_features(config)[0]
    n = config.n_samples_per_class
    return [FeatureRow(_sample_id(*divmod(i, n)), i // n, w, feats[i, w])
            for i in range(2 * n) for w in range(feats.shape[1])]


def _best_mapping(labels: np.ndarray, pred_if_1: np.ndarray, pred_if_0: np.ndarray
                  ) -> tuple[float, int, tuple[int, int, int, int]]:
    """The better of two predictions, made with cluster 1 or cluster 0 anomalous.

    Ties go to cluster 1.  :returns: (accuracy, anomalous cluster id,
    (tn, fp, fn, tp))
    """
    acc1 = float(np.mean(pred_if_1 == labels))
    acc0 = float(np.mean(pred_if_0 == labels))
    pred, bad, acc = (pred_if_1, 1, acc1) if acc1 >= acc0 else (pred_if_0, 0, acc0)
    tn = int(np.sum((labels == 0) & (pred == 0)))
    fp = int(np.sum((labels == 0) & (pred == 1)))
    fn = int(np.sum((labels == 1) & (pred == 0)))
    tp = int(np.sum((labels == 1) & (pred == 1)))
    return acc, bad, (tn, fp, fn, tp)


def permutation_accuracy(labels, assignments) -> tuple[float, int, tuple[int, int, int, int]]:
    """Best accuracy over the two cluster->label mappings.

    :returns: (accuracy fraction, cluster id treated as anomalous,
        (tn, fp, fn, tp)); never below 0.5 on balanced data
    """
    lab = np.asarray(labels, dtype=np.int64)
    asg = np.asarray(assignments, dtype=np.int64)
    if lab.shape != asg.shape or lab.size == 0:
        raise FitError("labels and assignments must be equal-length and non-empty")
    return _best_mapping(lab, asg, 1 - asg)


@dataclass
class ResultRow:
    """Score of one (signals, feature) combination."""

    signal: str
    feature: str
    accuracy_pct: float
    tn: int = 0
    fp: int = 0
    fn: int = 0
    tp: int = 0
    detect_rate: float | None = None
    mean_speedup: float | None = None
    mean_latency_s: float | None = None
    error: str | None = None


@dataclass
class EvaluationReport:
    config: ExperimentConfig
    n_observations: int
    rows: list[ResultRow]

    @property
    def best(self) -> ResultRow:
        ok = [r for r in self.rows if r.error is None]
        if not ok:
            raise FitError("every signal/feature combination failed")
        return max(ok, key=lambda r: r.accuracy_pct)


def fit_model(algorithm: str, mat: np.ndarray, *, seed: int, birch_branching: int,
              birch_threshold: float, spectral_sigma: float) -> ClusterModel:
    """Fit one 2-cluster model of the named algorithm to a validated matrix."""
    if algorithm == "kmeans":
        return fit_kmeans(mat, seed=seed)
    if algorithm == "gmm":
        return fit_gmm(mat, seed=seed)
    if algorithm == "birch":
        return fit_birch(mat, birch_branching, birch_threshold)
    return fit_spectral(mat, spectral_sigma, seed=seed)


def evaluate(config: ExperimentConfig) -> EvaluationReport:
    """Fit and score each signal/feature combination of one experiment.

    Combinations cover every observed signal per feature, each signal's
    aggregated feature tuple, and (for multi-signal configs) cross-signal
    tuples of each feature and of the full aggregate.  A combination's
    observation is its features concatenated signal-major, feature-minor.
    Windowed configs score instances: one is anomalous iff any window is.
    """
    feats, samples_per_window, sample_period = generate_features(config)
    n_inst, n_win = feats.shape[:2]
    n = n_inst // 2
    labels = np.repeat([0, 1], n)
    combos: list[tuple[tuple[str, ...], tuple[str, ...]]] = []
    for s in config.observed_signals:
        for f in config.features:
            combos.append(((s,), (f,)))
        if len(config.features) >= 2:
            combos.append(((s,), config.features))
    if len(config.observed_signals) >= 2:
        for f in config.features:
            combos.append((config.observed_signals, (f,)))
        if len(config.features) >= 2:
            combos.append((config.observed_signals, config.features))

    rows_out: list[ResultRow] = []
    for signals, names in combos:
        sig_name = "+".join(signals)
        feat_name = names[0] if len(names) == 1 else "agg"
        sig_idx = [config.observed_signals.index(s) for s in signals]
        feat_idx = [config.features.index(f) for f in names]
        raw = feats[:, :, sig_idx][..., feat_idx].reshape(n_inst * n_win, -1)
        try:
            mat = as_matrix(NormalizationParams(raw.min(0), raw.max(0)).apply(raw))
            model = fit_model(config.algorithm, mat, seed=config.seed,
                              birch_branching=config.birch_branching,
                              birch_threshold=config.birch_threshold,
                              spectral_sigma=config.spectral_sigma)
            if config.centroid_select:
                model = refine_model(model, mat, config.sigma_scope)
            assignments = assign_many(model, mat)
            if config.window_k:
                per_inst = assignments.reshape(n_inst, n_win)
                acc, bad, conf = _best_mapping(labels, (per_inst == 1).any(axis=1),
                                               (per_inst == 0).any(axis=1))
                windows = mat.reshape(n_inst, n_win, -1)
                rep = latency_report([
                    detect_windowed(model, windows[i], samples_per_window,
                                    sample_period, stop_early=True,
                                    anomalous_cluster=bad,
                                    sample_id=_sample_id(1, i - n))
                    for i in range(n, n_inst)])
                rows_out.append(ResultRow(sig_name, feat_name, 100.0 * acc,
                                          *conf,
                                          detect_rate=rep["detect_rate"],
                                          mean_speedup=rep["mean_speedup"],
                                          mean_latency_s=rep["mean_latency_s"]))
            else:
                acc, bad, conf = permutation_accuracy(labels, assignments)
                rows_out.append(ResultRow(sig_name, feat_name, 100.0 * acc, *conf))
        except AmsDetectError as exc:
            rows_out.append(ResultRow(sig_name, feat_name, float("nan"),
                                      error=str(exc)))
    report = EvaluationReport(config, n_inst * n_win, rows_out)
    report.best  # raises FitError when every combination failed
    return report


def report_to_csv(report: EvaluationReport, path) -> None:
    with open(path, "w") as fh:
        fh.write("signal,feature,accuracy_pct,tn,fp,fn,tp,"
                 "detect_rate,mean_speedup,mean_latency_s,error\n")
        for r in report.rows:
            if r.error is not None:
                err = r.error.replace(",", ";").replace("\n", " ")
                fh.write(f"{r.signal},{r.feature},,,,,,,,,{err}\n")
                continue
            detect = "" if r.detect_rate is None else f"{r.detect_rate:.4f}"
            speed = "" if r.mean_speedup is None else f"{r.mean_speedup:.6f}"
            lat = "" if r.mean_latency_s is None else f"{r.mean_latency_s:.6e}"
            fh.write(f"{r.signal},{r.feature},{r.accuracy_pct:.4f},"
                     f"{r.tn},{r.fp},{r.fn},{r.tp},{detect},{speed},{lat},\n")


def report_table(report: EvaluationReport) -> str:
    cfg = report.config
    lines = [f"experiment {cfg.experiment} on {cfg.circuit} | "
             f"algorithm {cfg.algorithm} | seed {cfg.seed} | "
             f"windows {cfg.window_k or '-'} | "
             f"centroid_select {'on' if cfg.centroid_select else 'off'}"]
    lines.append(f"{'signal':<42}{'feature':<10}{'acc%':>8}  "
                 f"{'detect':>7}{'speedup':>9}")
    for r in report.rows:
        if r.error is not None:
            lines.append(f"{r.signal:<42}{r.feature:<10}{'ERROR':>8}  {r.error}")
            continue
        detect = "" if r.detect_rate is None else f"{r.detect_rate:7.3f}"
        speed = "" if r.mean_speedup is None else f"{r.mean_speedup:9.3f}"
        lines.append(f"{r.signal:<42}{r.feature:<10}{r.accuracy_pct:8.2f}  "
                     f"{detect}{speed}")
    best = report.best
    lines.append(f"best: {best.signal} / {best.feature} "
                 f"at {best.accuracy_pct:.2f}%")
    return "\n".join(lines) + "\n"


@dataclass
class SuiteEntry:
    config: ExperimentConfig
    report: EvaluationReport | None
    error: str | None


@dataclass
class SuiteResult:
    entries: list[SuiteEntry]


def run_suite(configs: list[ExperimentConfig]) -> SuiteResult:
    """Evaluate each config; failures are recorded per entry, never fatal."""
    if not configs:
        raise ConfigurationError("suite contains no experiments",
                                 config_key="experiments")
    entries = []
    for cfg in configs:
        try:
            entries.append(SuiteEntry(cfg, evaluate(cfg), None))
        except AmsDetectError as exc:
            entries.append(SuiteEntry(cfg, None, str(exc)))
    return SuiteResult(entries)


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{path}: invalid JSON ({exc})")
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path}: expected a JSON object")
    return ExperimentConfig.from_dict(data)


def load_suite(path) -> list[ExperimentConfig]:
    """Read a suite file: {"defaults": {...}, "experiments": [{...}, ...]}.

    A bare JSON list of config objects is also accepted.  Per-entry keys
    override the shared defaults.
    """
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{path}: invalid JSON ({exc})")
    if isinstance(data, list):
        defaults, entries = {}, data
    elif isinstance(data, dict):
        defaults = data.get("defaults", {})
        entries = data.get("experiments")
        if entries is None:
            raise ConfigurationError(f"{path}: suite needs an 'experiments' list",
                                     config_key="experiments")
    else:
        raise ConfigurationError(f"{path}: expected a JSON object or list")
    if not entries:
        raise ConfigurationError(f"{path}: suite contains no experiments",
                                 config_key="experiments")
    return [ExperimentConfig.from_dict({**defaults, **entry}) for entry in entries]


SUITE_CSV_HEADER = ("experiment,circuit,algorithm,features,signals,windowed,"
                    "centroid_select,accuracy_pct,detect_rate,mean_speedup,seed")


def suite_to_csv(result: SuiteResult, path) -> None:
    """Combined plot-ready CSV, one row per suite entry (best combination)."""
    with open(path, "w") as fh:
        fh.write(SUITE_CSV_HEADER + "\n")
        for e in result.entries:
            cfg = e.config
            feats = "+".join(cfg.features)
            sigs = "+".join(cfg.observed_signals)
            windowed = cfg.window_k or 0
            select = 1 if cfg.centroid_select else 0
            if e.report is None:
                fh.write(f"{cfg.experiment},{cfg.circuit},{cfg.algorithm},"
                         f"{feats},{sigs},{windowed},{select},,,,{cfg.seed}\n")
                continue
            best = e.report.best
            detect = "" if best.detect_rate is None else f"{best.detect_rate:.4f}"
            speed = "" if best.mean_speedup is None else f"{best.mean_speedup:.6f}"
            fh.write(f"{cfg.experiment},{cfg.circuit},{cfg.algorithm},"
                     f"{feats},{sigs},{windowed},{select},"
                     f"{best.accuracy_pct:.4f},{detect},{speed},{cfg.seed}\n")


def suite_table(result: SuiteResult) -> str:
    lines = [f"{'experiment':<12}{'circuit':<17}{'algorithm':<10}"
             f"{'best acc%':>10}  note"]
    for e in result.entries:
        cfg = e.config
        if e.report is None:
            lines.append(f"{cfg.experiment:<12}{cfg.circuit:<17}"
                         f"{cfg.algorithm:<10}{'--':>10}  FAILED: {e.error}")
        else:
            best = e.report.best
            note = f"{best.signal}/{best.feature}"
            if best.detect_rate is not None:
                note += (f", detect {best.detect_rate:.2f}, "
                         f"speedup {best.mean_speedup:.2f}")
            lines.append(f"{cfg.experiment:<12}{cfg.circuit:<17}"
                         f"{cfg.algorithm:<10}{best.accuracy_pct:>10.2f}  {note}")
    return "\n".join(lines) + "\n"
