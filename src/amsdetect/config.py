"""Experiment configuration: the named experiments, and the checked knobs
of one run (an ExperimentConfig).  The helpers at the end serve both the
population walk and ``cli simulate``, which take the same simulation knobs.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .centroid import _check_scope
from .cluster.birch import _check_params
from .cluster.spectral import _check_sigma
from .errors import ConfigurationError, _read_text
from .features import FEATURE_NAMES, _check_selection, _check_windows
from .inject import FAULT_NAMES, TEMP_RANGE, PointPeriodic, PointRandom, _check_temperature
from .waveforms import (_ANALYSES, SweepSpec, VrefConfig, Waveform, _check_kstage,
                        _check_sine, _sample_period, sine_stimulus)

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

# Component-fault experiments -> their fault's name in FAULT_NAMES.
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


def _check_algorithm(algorithm: str) -> None:
    if algorithm not in ALGORITHMS:
        raise ConfigurationError(f"unknown algorithm {algorithm!r}", config_key="algorithm")


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
    """Full description of one experiment run, as flat keys with defaults so
    that JSON config files stay trivially greppable.

    A rule on one value belongs to the code that uses it, and construction
    calls that code's check, so a config key and the CLI flag of the same
    name share one rule and one message.  The config's own checks are
    names, types, combinations, finite and non-negative noise scales, the
    counts no owner checks up front (``n_samples_per_class``, ``seed``,
    ``window_k``) and array sizes.  Every key is checked whether or not the
    run uses it, and ``window_k`` also against the signal the walk windows
    (``n_samples``, or ``sweep_points`` for a DC analysis).

    Construction also builds, once, what the walk simulates from; these are
    plain attributes, not fields, so ``fields()``, ``==`` and
    ``dataclasses.replace`` see only the JSON keys:

    * ``vref``: the reference chain's ``VrefConfig`` (``noise_std`` and
      ``vref_params``), whatever the circuit;
    * ``injections``: a block experiment's ``(block, kind)`` legs, in its
      order, each kind a ``PointRandom`` or ``PointPeriodic``; ``()`` for
      other experiments, though both kinds are built and so checked;
    * ``sweep``: the ``SweepSpec`` of a DC analysis, built for any analysis;
    * ``fault``: ``apply_component_fault``'s ``(name, temperature)`` for an
      anomalous instance of an opamp or k-stage chain, the temperature
      None unless the fault is Parametric; None on the reference chain;
    * ``sample_period``: ``duration / n_samples``.
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
        legal = ["vref_blocks"] if self.experiment in BLOCK_EXPERIMENTS else (
            ["vref_components", "opamp"] if self.experiment in FAULT_EXPERIMENTS
            else ["kstage"])     # the first is the default
        if self.circuit is None:
            self.circuit = legal[0]
        if self.circuit not in legal:
            raise ConfigurationError(
                f"experiment {self.experiment} runs on {sorted(legal)}, "
                f"not {self.circuit!r}", config_key="circuit")
        _check_algorithm(self.algorithm)
        self.features = _check_selection(self.features)
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
        _check_scope(self.sigma_scope)
        _check_sigma(self.spectral_sigma)
        _check_params(self.birch_branching, self.birch_threshold)
        for key in ("measurement_noise", "jitter_gain", "jitter_offset"):
            # numpy's normal() refuses any scale with its sign bit set
            value = getattr(self, key)
            if np.signbit(value) or not math.isfinite(value):
                raise ConfigurationError(f"{key} must be finite and not negative "
                                         f"(-0.0 included), got {value!r}", config_key=key)
        if self.n_samples_per_class < 10:
            raise ConfigurationError("n_samples_per_class must be >= 10",
                                     config_key="n_samples_per_class")
        if self.seed < 0:
            raise ConfigurationError("seed must be >= 0", config_key="seed")
        self.sample_period = _sample_period(self.n_samples, self.duration)
        if self.analysis not in _ANALYSES:
            raise ConfigurationError(f"unknown analysis {self.analysis!r}",
                                     config_key="analysis")
        if (self.experiment == "ParFault" and self.analysis == "dc_temp_sweep"):
            raise ConfigurationError(
                "a Parametric fault is invisible to a temperature sweep; "
                "use transient or dc_input_sweep", config_key="analysis")
        self.sweep = _sweep(self)
        _check_sine(self.stim_dc, self.stim_amplitude, self.stim_frequency)
        if self.kstage_gains is not None:
            self.kstage_gains = tuple(float(g) for g in self.kstage_gains)
        if self.anomalous_stages is not None:
            self.anomalous_stages = tuple(int(s) for s in self.anomalous_stages)
        _check_kstage(self.kstage_k, self.kstage_gains, self.anomalous_stages or ())
        if self.kstage_fault not in FAULT_NAMES:
            raise ConfigurationError(f"unknown kstage_fault {self.kstage_fault!r}",
                                     config_key="kstage_fault")
        self.vref = VrefConfig(**{"noise_std": self.noise_std, **self.vref_params})
        kinds = {"random": PointRandom(self.rate_pct, self.amp_low, self.amp_high),
                 "periodic": PointPeriodic(self.threshold_frac, self.delta_frac)}
        self.injections = tuple((block, kinds[mode]) for block, mode
                                in BLOCK_EXPERIMENTS.get(self.experiment, ()))
        _check_temperature(self.fault_temperature)
        self.fault = None
        if self.circuit != "vref_blocks":
            name = (self.kstage_fault if self.circuit == "kstage"
                    else FAULT_EXPERIMENTS[self.experiment])
            self.fault = name, self.fault_temperature if name == "Parametric" else None
        # the (2n, k, signals, features) raw features
        feature_bytes = (8 * 2 * self.n_samples_per_class * len(self.observed_signals)
                         * len(self.features))
        _check_sizes(self, ("n_samples_per_class", feature_bytes),
                     ("window_k", feature_bytes * (self.window_k or 1)))
        _check_windows(self.n_samples if _analysis(self) == "transient" else self.sweep_points,
                       self.window_k or 1, self.features)

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


def _read_json(path):
    """The value a JSON file holds; text that is not JSON is a ConfigurationError."""
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: invalid JSON ({exc})")


def load_suite(path) -> list[ExperimentConfig]:
    """Read a suite file: {"defaults": {...}, "experiments": [{...}, ...]}.

    A bare JSON list of config objects is also accepted.  Per-entry keys
    override the shared defaults.
    """
    data = _read_json(path)
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


def _analysis(config) -> str:
    """The analysis a config's (or ``simulate``'s) circuit runs: the
    reference chain and a k-stage chain always run transient."""
    return config.analysis if config.circuit in ("vref_components", "opamp") else "transient"


def _check_sizes(spec, *sizes: tuple[str, int]) -> None:
    """Refuse ``spec`` (an ExperimentConfig or ``simulate``'s arguments)
    when an array of it would exceed sys.maxsize bytes, which numpy cannot
    hold: one of the (key, bytes) ``sizes``, or one signal or sweep row."""
    row = "n_samples" if _analysis(spec) == "transient" else "sweep_points"
    for key, size in (*sizes, (row, 8 * getattr(spec, row))):
        if size > sys.maxsize:
            raise ConfigurationError(
                f"{key} {getattr(spec, key)} implies an array of {size} "
                f"bytes; numpy holds at most {sys.maxsize}", config_key=key)


def _stimulus(spec) -> Waveform | SweepSpec:
    """The opamp stimulus of an ExperimentConfig or of ``simulate``'s
    arguments: the sine of a transient analysis, else the DC sweep."""
    if _analysis(spec) == "transient":
        return sine_stimulus(spec.n_samples, spec.duration, spec.stim_dc,
                             spec.stim_amplitude, spec.stim_frequency)
    return _sweep(spec)


def _sweep(spec) -> SweepSpec:
    """The DC sweep of an ExperimentConfig or of ``simulate``'s arguments,
    whose unset end defaults to 0-0.2 V (input sweep) or TEMP_RANGE
    (temperature sweep, and any other analysis)."""
    lo, hi = (0.0, 0.2) if spec.analysis == "dc_input_sweep" else TEMP_RANGE
    return SweepSpec(lo if spec.sweep_start is None else spec.sweep_start,
                     hi if spec.sweep_stop is None else spec.sweep_stop,
                     spec.sweep_points, spec.sweep_bias)
