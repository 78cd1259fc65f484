"""Experiment harness: named experiments, dataset generation, evaluation.

An ExperimentConfig names one monitored circuit, one injection/fault recipe,
one algorithm and one featurization.  ``generate_features`` simulates its
balanced instances (n clean, then n anomalous) into one raw feature array
of shape (instances, windows, signals, features); labels and sample ids
follow from the instance index and ride along for scoring only -- fitting
never sees them.  Simulation is batched per config: the time recursions
step all 2n instances at once on one time-major buffer, and everything
else runs in chunks of ``_CHUNK`` instances; each instance still gets the
bytes it would get simulated alone.

Evaluation runs in three stages: prepare (simulate, and list the
signal/feature combinations), fit (one dispatcher over every combination;
each is sliced from the array and min-max normalized when needed) and
score.  ``run_suite`` prepares every entry, fits all of their combinations
in one dispatcher call -- GMM fits of one matrix shape run as lanes of one
lockstep EM, across entries -- then scores each entry, continuing past
per-entry failures; ``evaluate`` is the one-entry case of that path, so an
entry's report has the same bytes in a suite and alone.
``generate_dataset`` is the same array as a ``Dataset``, one row per
(instance, window).

Reproducibility contract: everything derives from ``config.seed`` through
per-sample child seeds, so a (config, seed) pair yields byte-identical
datasets and reports.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .centroid import refine_model
from .cluster import (ClusterModel, as_matrix, assign_many, fit_birch, fit_gmm,
                      fit_kmeans, fit_spectral)
from .cluster.gmm import _fit_gmm_lanes
from .earlydetect import latency_report, scan_windows
from .errors import AmsDetectError, ConfigurationError, FitError, _read_text
from .features import FEATURE_NAMES, Dataset, NormalizationParams, _windowed_rows
from .inject import (TEMP_RANGE, AnomalySpec, ComponentFault, InjectionLocation,
                     PointPeriodic, PointRandom, _walk_chain,
                     apply_component_fault)
from .waveforms import (OpampModel, SweepSpec, VrefConfig, Waveform,
                        _check_finite, _input_rows, _lowpass_steps,
                        _output_drive, _simulate_columns, build_kstage,
                        default_vref_component_model, sine_stimulus)
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


def _type_ok(value, kind: str) -> bool:
    """Whether a config value matches a field annotation such as ``int | None``."""
    if kind.endswith(" | None"):
        return value is None or _type_ok(value, kind[:-len(" | None")])
    if kind.startswith("tuple["):
        item = kind[len("tuple["):].split(",")[0]
        return (isinstance(value, (list, tuple))
                and all(_type_ok(v, item) for v in value))
    if isinstance(value, bool):
        return kind == "bool"
    if kind in ("int", "float") and isinstance(value, int):
        # past the float range, or sys.maxsize for numpy sizes, it fails in use
        return abs(value) <= (sys.maxsize if kind == "int" else sys.float_info.max)
    return isinstance(value, {"int": int, "float": (int, float), "str": str,
                              "bool": bool, "dict": dict}[kind])


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
        for f in fields(self):
            value = getattr(self, f.name)
            if not _type_ok(value, f.type):
                raise ConfigurationError(f"{f.name} must be {f.type}, got {value!r}",
                                         config_key=f.name)
        vref_keys = {f.name for f in fields(VrefConfig)}
        for key, value in self.vref_params.items():
            if key not in vref_keys or not _type_ok(value, "float"):
                raise ConfigurationError(
                    f"vref_params needs numbers for keys of {sorted(vref_keys)}, "
                    f"got {key!r}: {value!r}", config_key="vref_params")
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
        if (len(set(self.observed_signals)) != len(self.observed_signals)
                or not self.observed_signals):
            raise ConfigurationError("observed_signals must be a non-empty set of "
                                     "distinct names", config_key="observed_signals")
        if self.window_k is not None and self.window_k < 1:
            raise ConfigurationError("window_k must be >= 1", config_key="window_k")
        if self.sigma_scope not in ("global", "cluster"):
            raise ConfigurationError("sigma_scope must be 'global' or 'cluster'",
                                     config_key="sigma_scope")
        if not 0.0 < self.spectral_sigma < np.inf:
            raise ConfigurationError("spectral_sigma must be finite and > 0, "
                                     f"got {self.spectral_sigma!r}",
                                     config_key="spectral_sigma")
        if not 0.0 < self.birch_threshold < np.inf:
            raise ConfigurationError("birch_threshold must be finite and > 0, "
                                     f"got {self.birch_threshold!r}",
                                     config_key="birch_threshold")
        if self.birch_branching < 2:
            raise ConfigurationError("birch_branching must be >= 2, "
                                     f"got {self.birch_branching!r}",
                                     config_key="birch_branching")
        for key in ("measurement_noise", "jitter_gain", "jitter_offset"):
            # numpy's normal() refuses any scale with its sign bit set
            if np.signbit(getattr(self, key)):
                raise ConfigurationError(f"{key} must not be negative (-0.0 "
                                         f"included), got {getattr(self, key)!r}",
                                         config_key=key)
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


def _jittered(base: OpampModel, rng: np.random.Generator,
              config: ExperimentConfig) -> OpampModel:
    gain = base.open_loop_gain * max(0.05, 1.0 + rng.normal(0.0, config.jitter_gain))
    offset = base.offset + rng.normal(0.0, config.jitter_offset)
    return replace(base, open_loop_gain=gain, offset=offset)


def _stimulus(config: ExperimentConfig) -> Waveform:
    return sine_stimulus(config.n_samples, config.duration, config.stim_dc,
                         config.stim_amplitude, config.stim_frequency)


_KSTAGE_BASE = OpampModel(open_loop_gain=30.0, rail_low=-2.5, rail_high=2.5,
                          offset=0.01, slew_rate=5.0e7)


# Instances per chunk of per-instance work (noise draws, injection, the PLL
# and trig blocks, measurement noise, features), so each temporary is a few
# (_CHUNK, n_samples) arrays; only the time recursions run all instances at
# once, on one time-major (n_samples, 2n) buffer.
_CHUNK = 8


def _chunks(total: int) -> list[slice]:
    return [slice(i, min(i + _CHUNK, total)) for i in range(0, total, _CHUNK)]


def _block_features(config: ExperimentConfig, feats: np.ndarray) -> tuple[int, float]:
    """Simulate every instance's reference chain and featurize it into ``feats``.

    :returns: (samples per signal, sample period)
    """
    vcfg = VrefConfig(**{"noise_std": config.noise_std, **config.vref_params})
    n, k = config.n_samples_per_class, config.window_k or 1
    dt = config.duration / config.n_samples
    observed = config.observed_signals
    drive = np.empty((config.n_samples, 2 * n)) if "output" in observed else None
    for c in _chunks(2 * n):
        ids = [divmod(i, n) for i in range(c.start, c.stop)]
        signals = _walk_chain(
            vcfg, _input_rows(vcfg, config.n_samples, dt,
                              [_child_seed(config.seed, label, idx, 0) for label, idx in ids]),
            dt, [_block_specs(config, label, idx) for label, idx in ids])
        for j, s in enumerate(observed):
            if s != "output":
                feats[c, :, j] = _windowed_rows(signals[s], k, config.features)
        if drive is not None:
            _output_drive(signals["trig"].T, vcfg, out=drive[:, c])
        del signals   # free this chunk's signals before the next chunk's exist
    if drive is not None:
        _lowpass_steps(drive, dt / vcfg.output_tau)
        j = observed.index("output")
        for c in _chunks(2 * n):
            rows = np.ascontiguousarray(drive[:, c].T)
            _check_finite(rows)
            feats[c, :, j] = _windowed_rows(rows, k, config.features)
    return config.n_samples, dt


def _instance_chain(config: ExperimentConfig, rng: np.random.Generator,
                    label: int) -> list[OpampModel]:
    """One instance's per-stage opamp models; draws its jitter from ``rng``.

    A k-stage instance that is anomalous also draws its faulted stage,
    unless ``anomalous_stages`` fixes it.
    """
    if config.circuit != "kstage":
        base = (default_vref_component_model() if config.circuit == "vref_components"
                else OpampModel())
        model = _jittered(base, rng, config)
        if label == 1:
            model = apply_component_fault(model, ComponentFault.from_name(
                FAULT_EXPERIMENTS[config.experiment], config.fault_temperature))
        return [model]
    base = _jittered(_KSTAGE_BASE, rng, config)
    gains = config.kstage_gains or (2.0,) * config.kstage_k
    if label == 1:
        stages = (config.anomalous_stages if config.anomalous_stages is not None
                  else (int(rng.integers(config.kstage_k)),))
        fault = ComponentFault.from_name(config.kstage_fault, config.fault_temperature)
        return build_kstage(base, gains, stages, fault)
    return build_kstage(base, gains)


def _sweep(spec) -> SweepSpec:
    """The DC sweep of an ExperimentConfig or of ``simulate``'s arguments; an
    unset end defaults to 0-0.2 V (input sweep) or TEMP_RANGE (temperature)."""
    lo, hi = (0.0, 0.2) if spec.analysis == "dc_input_sweep" else TEMP_RANGE
    return SweepSpec(lo if spec.sweep_start is None else spec.sweep_start,
                     hi if spec.sweep_stop is None else spec.sweep_stop,
                     spec.sweep_points, spec.sweep_bias)


def _opamp_features(config: ExperimentConfig, feats: np.ndarray) -> tuple[int, float]:
    """Simulate every instance's opamp or k-stage chain and featurize its output.

    Each instance's random stream is parked (its bit-generator state, not
    a Generator of ~8 kB) between its model draws and its measurement
    noise, so its draws come in the order of simulating it alone: jitter,
    the faulted k-stage stage, then noise.  A k-stage chain always runs
    transient.

    :returns: (samples or sweep points per signal, sample period)
    """
    n, k = config.n_samples_per_class, config.window_k or 1
    chains, streams = [], []
    for i in range(2 * n):
        rng = np.random.default_rng(_child_seed(config.seed, *divmod(i, n), 0))
        chains.append(_instance_chain(config, rng, i // n))
        streams.append(rng.bit_generator.state)
    if config.circuit == "kstage" or config.analysis == "transient":
        stimulus = _stimulus(config)
        out = _simulate_columns(chains, "transient", stimulus)
        dt = stimulus.sample_period
    else:
        out = _simulate_columns(chains, config.analysis, _sweep(config))
        dt = 1.0
    for c in _chunks(2 * n):
        rows = np.ascontiguousarray(out[:, c].T)
        for row, stream in zip(rows, streams[c]):
            rng.bit_generator.state = stream
            row += rng.normal(0.0, config.measurement_noise, row.size)
            _check_finite(row)
        feats[c, :, 0] = _windowed_rows(rows, k, config.features)
    return out.shape[0], dt


def generate_features(config: ExperimentConfig) -> tuple[np.ndarray, int, float]:
    """Raw features of every instance, n clean then n anomalous.

    :returns: (feats, samples_per_window, sample_period) where feats has
        shape (2n, windows, signals, features), signals in
        ``observed_signals`` order and features in ``features`` order; the
        two scalars come from the simulated waveforms
    """
    n, k = config.n_samples_per_class, config.window_k or 1
    feats = np.empty((2 * n, k, len(config.observed_signals), len(config.features)))
    simulate = _block_features if config.circuit == "vref_blocks" else _opamp_features
    length, dt = simulate(config, feats)
    return feats, length // k, dt


def generate_dataset(config: ExperimentConfig) -> Dataset:
    """The config's full dataset, one row per (instance, window); its columns
    are every observed signal x selected feature."""
    feats = generate_features(config)[0]
    n = config.n_samples_per_class
    return Dataset.from_windows([_sample_id(*divmod(i, n)) for i in range(2 * n)],
                                np.arange(2 * n) // n, feats)


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


@dataclass
class _Prepared:
    """One config after simulation: its raw features and combinations.

    A combination's matrix is rebuilt from ``feats`` each time it is needed
    (fit, then score), with the same bytes each time, so no more than one
    shape group's matrices are held at once.
    """

    config: ExperimentConfig
    feats: np.ndarray
    samples_per_window: int
    sample_period: float
    combos: list[tuple[tuple[str, ...], tuple[str, ...]]]

    def shape(self, combo) -> tuple[int, int]:
        signals, names = combo
        return (self.feats.shape[0] * self.feats.shape[1], len(signals) * len(names))

    def matrix(self, combo) -> np.ndarray:
        """The combination's rows, signal-major, feature-minor, min-max normalized."""
        signals, names = combo
        sig_idx = [self.config.observed_signals.index(s) for s in signals]
        feat_idx = [self.config.features.index(f) for f in names]
        raw = self.feats[:, :, sig_idx][..., feat_idx].reshape(self.shape(combo))
        return as_matrix(NormalizationParams(raw.min(0), raw.max(0)).apply(raw))


def _prepare(config: ExperimentConfig) -> _Prepared:
    """Simulate a config and list the signal/feature combinations it is scored on."""
    feats, samples_per_window, sample_period = generate_features(config)
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
    return _Prepared(config, feats, samples_per_window, sample_period, combos)


def _fit_jobs(jobs: list[tuple[_Prepared, tuple]]) -> list:
    """Fit each (entry, combination) job; a job that fails yields its message.

    GMM jobs of one matrix shape run as lanes of one lockstep EM
    (``cluster.gmm``), across combinations and entries alike; each lane
    gets the bytes ``fit_model`` would give it.  Every other algorithm goes
    through ``fit_model``.  Matrices are built per job, or per shape group
    for GMM, and dropped after the fit.
    """
    out: list = [None] * len(jobs)
    gmm_lanes: dict[tuple[int, int], list[int]] = {}
    for i, (prep, combo) in enumerate(jobs):
        cfg = prep.config
        if cfg.algorithm == "gmm":
            gmm_lanes.setdefault(prep.shape(combo), []).append(i)
            continue
        try:
            out[i] = fit_model(cfg.algorithm, prep.matrix(combo), seed=cfg.seed,
                               birch_branching=cfg.birch_branching,
                               birch_threshold=cfg.birch_threshold,
                               spectral_sigma=cfg.spectral_sigma)
        except AmsDetectError as exc:
            out[i] = str(exc)
    for idx in gmm_lanes.values():
        lanes, mats = [], []
        for i in idx:
            try:
                mats.append(jobs[i][0].matrix(jobs[i][1]))
                lanes.append(i)
            except AmsDetectError as exc:
                out[i] = str(exc)
        if lanes:
            seeds = [{"seed": jobs[i][0].config.seed} for i in lanes]
            for i, fit in zip(lanes, _fit_gmm_lanes(mats, seeds)):
                out[i] = str(fit) if isinstance(fit, FitError) else fit
    return out


def _score(prep: _Prepared, fits: list) -> EvaluationReport:
    """Refine (when asked), assign and score each combination's fit.

    :raises FitError: every combination failed
    """
    config = prep.config
    n_inst, n_win = prep.feats.shape[:2]
    n = n_inst // 2
    labels = np.repeat([0, 1], n)
    rows_out: list[ResultRow] = []
    for (signals, names), model in zip(prep.combos, fits):
        sig_name = "+".join(signals)
        feat_name = names[0] if len(names) == 1 else "agg"
        if isinstance(model, str):
            rows_out.append(ResultRow(sig_name, feat_name, float("nan"), error=model))
            continue
        try:
            mat = prep.matrix((signals, names))
            if config.centroid_select:
                model = refine_model(model, mat, config.sigma_scope)
            assignments = assign_many(model, mat)
            if config.window_k:
                per_inst = assignments.reshape(n_inst, n_win)
                acc, bad, conf = _best_mapping(labels, (per_inst == 1).any(axis=1),
                                               (per_inst == 0).any(axis=1))
                rep = latency_report(scan_windows(
                    per_inst[n:], prep.samples_per_window, prep.sample_period, bad))
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


def evaluate(config: ExperimentConfig) -> EvaluationReport:
    """Fit and score each signal/feature combination of one experiment.

    Combinations cover every observed signal per feature, each signal's
    aggregated feature tuple, and (for multi-signal configs) cross-signal
    tuples of each feature and of the full aggregate.  A combination's
    observation is its features concatenated signal-major, feature-minor.
    Windowed configs score instances: one is anomalous iff any window is.
    """
    prep = _prepare(config)
    return _score(prep, _fit_jobs([(prep, combo) for combo in prep.combos]))


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
    """Evaluate each config; failures are recorded per entry, never fatal.

    Every entry is simulated first, then all of their combinations are
    fitted in one ``_fit_jobs`` call, so same-shape GMM fits of different
    entries share lockstep batches, then each entry is scored; an entry's
    report is the one ``evaluate`` gives it.  What is held across entries
    is their raw feature arrays, never their waveforms.
    """
    if not configs:
        raise ConfigurationError("suite contains no experiments",
                                 config_key="experiments")
    prepared: list = []
    for cfg in configs:
        try:
            prepared.append(_prepare(cfg))
        except AmsDetectError as exc:
            prepared.append(str(exc))
    entries = [p for p in prepared if isinstance(p, _Prepared)]
    fits = iter(_fit_jobs([(p, combo) for p in entries for combo in p.combos]))
    out = []
    for cfg, p in zip(configs, prepared):
        if isinstance(p, str):
            out.append(SuiteEntry(cfg, None, p))
            continue
        entry_fits = [next(fits) for _ in p.combos]
        try:
            out.append(SuiteEntry(cfg, _score(p, entry_fits), None))
        except AmsDetectError as exc:
            out.append(SuiteEntry(cfg, None, str(exc)))
    return SuiteResult(out)


def load_config(path) -> ExperimentConfig:
    try:
        data = json.loads(_read_text(path))
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
    try:
        data = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: invalid JSON ({exc})")
    if isinstance(data, list):
        defaults, entries = {}, data
    elif isinstance(data, dict):
        defaults = data.get("defaults", {})
        entries = data.get("experiments")
        if not isinstance(defaults, dict):
            raise ConfigurationError(f"{path}: suite 'defaults' must be an object",
                                     config_key="defaults")
        if not isinstance(entries, list):
            raise ConfigurationError(f"{path}: suite needs an 'experiments' list",
                                     config_key="experiments")
    else:
        raise ConfigurationError(f"{path}: expected a JSON object or list")
    if not entries:
        raise ConfigurationError(f"{path}: suite contains no experiments",
                                 config_key="experiments")
    if not all(isinstance(entry, dict) for entry in entries):
        raise ConfigurationError(f"{path}: every suite entry must be an object",
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
