"""Behavioral models of the monitored circuits.

Implementation notes:

* Everything here is a behavioral (block-level) model, not a device-level
  simulation.  The voltage-reference chain is four blocks wired in series --
  input source -> PLL -> trig-function shaper -> low-pass output stage -- and
  each block is a pure function of its predecessor's samples plus its own
  parameters.  That purity is load-bearing: anomaly injection re-runs the
  downstream blocks on a perturbed signal to propagate faults.
* The input sinusoid is peak-calibrated: the raw sample grid rarely hits the
  analytic peak of sin(), so the samples are rescaled to make max(|input|)
  equal the configured amplitude exactly (injection magnitudes are expressed
  as multiples of that maximum).
* Opamps use a clipped linear transfer with input offset, a linear temperature
  drift term, and slew-rate limiting in transient mode.  Multi-stage amplifier
  chains model each closed-loop stage with the finite-gain correction
  g_eff = G*A/(A+G) so open-loop-gain faults remain visible through feedback.
* The time recursions (output-stage Euler step, slew limiter, open-output
  collapse) run sample by sample on Python floats taken from ``tolist()``:
  the same IEEE double operations in the same order as on numpy scalars, so
  the results are bit-identical, without numpy's per-scalar dispatch.
  Closed forms (a geometric series, an ``lfilter``-style recursion) are
  off-limits: they round differently and change the output bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigurationError, InputError

__all__ = [
    "Waveform",
    "VrefConfig",
    "VrefBlockSignals",
    "OpampModel",
    "SweepSpec",
    "AmplifierStage",
    "KStageAmplifier",
    "simulate_vref",
    "simulate_opamp",
    "sine_stimulus",
    "build_kstage",
    "simulate_kstage",
    "stage_model",
    "vref_input_block",
    "vref_pll_block",
    "vref_trig_block",
    "vref_output_block",
    "default_vref_component_model",
    "waveform_to_csv",
    "waveform_from_csv",
]


@dataclass
class Waveform:
    """A uniformly sampled real-valued signal.

    :param samples: sample values; stored as a float64 numpy array
    :param sample_period: spacing between samples, seconds (a unit "step" for
        DC sweeps, which have no time axis)
    :param name: optional signal name used in reports and CSV file stems
    """

    samples: np.ndarray
    sample_period: float
    name: str = ""

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise InputError("waveform samples must be a non-empty 1-D array")
        if not np.all(np.isfinite(self.samples)):
            raise InputError("waveform samples must be finite")
        if not (isinstance(self.sample_period, (int, float)) and self.sample_period > 0):
            raise InputError("sample_period must be > 0")
        self.sample_period = float(self.sample_period)

    def __len__(self) -> int:
        return int(self.samples.size)

    @property
    def times(self) -> np.ndarray:
        """Sample instants t_i = i * sample_period."""
        return np.arange(self.samples.size) * self.sample_period

    @property
    def duration(self) -> float:
        return self.samples.size * self.sample_period

    def copy_with(self, samples: np.ndarray, name: str | None = None) -> "Waveform":
        return Waveform(np.array(samples, dtype=np.float64),
                        self.sample_period,
                        self.name if name is None else name)


@dataclass(frozen=True)
class VrefConfig:
    """Parameters of the behavioral voltage-reference chain.

    :param input_frequency: input sinusoid frequency, Hz
    :param input_amplitude: input peak amplitude, volts
    :param noise_std: std-dev of additive Gaussian input noise, volts (0 = off)
    :param pll_multiplier: PLL output frequency as a multiple of the input frequency
    :param pll_lock_tau: first-order lock transient time constant, seconds
    :param pll_deviation_gain: frequency pushing per volt of deviation between
        the observed input and the nominal carrier, Hz/V
    :param trig_gain: phase scale of the trig shaper (1.0 maps a full-scale
        input sample to pi radians)
    :param output_level: nominal settled output of the reference, volts
    :param output_gain: coupling of the trig signal into the output stage, V/V
    :param output_tau: output low-pass time constant, seconds
    """

    input_frequency: float = 1.0e6
    input_amplitude: float = 1.0
    noise_std: float = 0.0
    pll_multiplier: float = 4.0
    pll_lock_tau: float = 1.0e-6
    pll_deviation_gain: float = 2.0e5
    trig_gain: float = 0.5
    output_level: float = 1.2
    output_gain: float = 0.5
    output_tau: float = 1.0e-6

    def __post_init__(self):
        if self.input_frequency <= 0:
            raise ConfigurationError("input_frequency must be > 0",
                                     config_key="input_frequency")
        if self.input_amplitude <= 0:
            raise ConfigurationError("input_amplitude must be > 0",
                                     config_key="input_amplitude")
        if self.noise_std < 0:
            raise ConfigurationError("noise_std must be >= 0", config_key="noise_std")
        if self.pll_multiplier <= 0:
            raise ConfigurationError("pll_multiplier must be > 0",
                                     config_key="pll_multiplier")
        for key in ("pll_lock_tau", "output_tau"):
            if getattr(self, key) <= 0:
                raise ConfigurationError(f"{key} must be > 0", config_key=key)


@dataclass
class VrefBlockSignals:
    """The five aligned waveforms produced by one reference-chain simulation.

    ``config`` records the generating parameters so downstream blocks can be
    re-simulated after in-place signal perturbation.
    """

    input: Waveform
    pll_frequency: Waveform
    pll_intensity: Waveform
    trig: Waveform
    output: Waveform
    config: VrefConfig = field(default_factory=VrefConfig)

    def __post_init__(self):
        n = len(self.input)
        dt = self.input.sample_period
        for w in (self.pll_frequency, self.pll_intensity, self.trig, self.output):
            if len(w) != n or w.sample_period != dt:
                raise InputError("block signals must share length and sample period")

    def as_dict(self) -> dict[str, Waveform]:
        return {
            "input": self.input,
            "pll_frequency": self.pll_frequency,
            "pll_intensity": self.pll_intensity,
            "trig": self.trig,
            "output": self.output,
        }


def _nominal_carrier(n_samples: int, sample_period: float, config: VrefConfig) -> np.ndarray:
    """Peak-calibrated clean input sinusoid shared by the source and the PLL."""
    t = np.arange(n_samples) * sample_period
    raw = np.sin(2.0 * math.pi * config.input_frequency * t)
    peak = float(np.max(np.abs(raw)))
    if peak <= 0.0:
        raise ConfigurationError(
            "input_frequency aliases to an all-zero sample grid",
            config_key="input_frequency")
    return config.input_amplitude * raw / peak


def vref_input_block(config: VrefConfig, n_samples: int, sample_period: float,
                     seed: int | None = 0) -> Waveform:
    """Input source: calibrated sinusoid plus optional Gaussian noise."""
    base = _nominal_carrier(n_samples, sample_period, config)
    if config.noise_std > 0:
        rng = np.random.default_rng(seed)
        base = base + rng.normal(0.0, config.noise_std, n_samples)
    return Waveform(base, sample_period, "input")


def vref_pll_block(inp: Waveform, config: VrefConfig) -> tuple[Waveform, Waveform]:
    """PLL block: returns (frequency trace, intensity waveform).

    The loop is modeled at lock: a first-order transient ramps the VCO to
    multiplier*f_in, and deviation of the observed input from the nominal
    carrier pushes the instantaneous frequency through pll_deviation_gain.
    On a clean noiseless input the deviation is identically zero, so the
    frequency trace is constant after lock and the intensity is a
    unit-amplitude sinusoid.
    """
    n = len(inp)
    dt = inp.sample_period
    t = inp.times
    lock = 1.0 - np.exp(-t / config.pll_lock_tau)
    deviation = inp.samples - _nominal_carrier(n, dt, config)
    f_inst = (config.pll_multiplier * config.input_frequency * lock
              + config.pll_deviation_gain * deviation)
    phase = 2.0 * math.pi * np.cumsum(f_inst) * dt
    return (Waveform(f_inst, dt, "pll_frequency"),
            Waveform(np.sin(phase), dt, "pll_intensity"))


def vref_trig_block(intensity: Waveform, config: VrefConfig) -> Waveform:
    """Trig shaper: sin() of the phase encoded by the PLL intensity samples."""
    phase = config.trig_gain * math.pi * intensity.samples
    return Waveform(np.sin(phase), intensity.sample_period, "trig")


def vref_output_block(trig: Waveform, config: VrefConfig) -> Waveform:
    """Output stage: first-order low-pass settling to the nominal level.

    Forward-Euler integration of tau*dy/dt = (level + gain*trig) - y from a
    0 V power-up state.
    """
    dt = trig.sample_period
    alpha = dt / config.output_tau
    drive = config.output_level + config.output_gain * trig.samples
    out = []
    y = 0.0
    for d in drive.tolist():
        y = y + alpha * (d - y)
        out.append(y)
    return Waveform(np.array(out), dt, "output")


def simulate_vref(config: VrefConfig, n_samples: int = 1500,
                  duration: float = 20.0e-6, seed: int | None = 0) -> VrefBlockSignals:
    """Simulate the full reference chain.

    :param n_samples: samples per signal (default 1500)
    :param duration: simulated span in seconds (default 20 us, so the default
        sample period is ~13.33 ns)
    :param seed: RNG seed for the input noise source
    """
    if n_samples < 2:
        raise ConfigurationError("n_samples must be >= 2", config_key="n_samples")
    if duration <= 0:
        raise ConfigurationError("duration must be > 0", config_key="duration")
    from .inject import _walk_chain  # late import: inject depends on this module
    inp = vref_input_block(config, n_samples, duration / n_samples, seed)
    signals, _ = _walk_chain(config, inp, [])
    return VrefBlockSignals(**signals, config=config)


@dataclass
class OpampModel:
    """Behavioral opamp: clipped linear transfer with offset, drift and slew.

    Static transfer: V_out = clip(gain * (V_in - offset)
                                  + temp_coeff * (T - nominal_temp), rails).

    ``eval_temp`` is the temperature the model is evaluated at (defaults to
    nominal), ``open_collapse`` switches the transient response to a slow
    first-order collapse onto the high rail, and ``applied_fault`` tags a
    model already transformed by a component fault so repeated application
    is a no-op.  All three exist so faults are expressible as transformed
    models rather than simulator flags.
    """

    open_loop_gain: float = 20.0
    rail_low: float = -2.5
    rail_high: float = 2.5
    offset: float = 0.02
    slew_rate: float = 5.0e7
    temp_coeff: float = 0.002
    nominal_temp: float = 25.0
    eval_temp: float | None = None
    open_collapse: bool = False
    applied_fault: str | None = None

    def __post_init__(self):
        if self.open_loop_gain <= 0:
            raise ConfigurationError("open_loop_gain must be > 0",
                                     config_key="open_loop_gain")
        if not self.rail_low < self.rail_high:
            raise ConfigurationError("rail_low must be < rail_high",
                                     config_key="rail_low")
        if self.slew_rate <= 0:
            raise ConfigurationError("slew_rate must be > 0", config_key="slew_rate")

    @property
    def rail_span(self) -> float:
        return self.rail_high - self.rail_low

    @property
    def temperature(self) -> float:
        return self.nominal_temp if self.eval_temp is None else self.eval_temp


@dataclass(frozen=True)
class SweepSpec:
    """A DC sweep: n_points values from start to stop (inclusive).

    ``bias`` is the fixed input voltage held during a temperature sweep.
    """

    start: float
    stop: float
    n_points: int
    bias: float = 0.0

    def __post_init__(self):
        if self.n_points < 2:
            raise ConfigurationError("sweep needs at least 2 points",
                                     config_key="n_points")

    @property
    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.n_points)


def _static_transfer(model: OpampModel, vin: np.ndarray,
                     temp: "float | np.ndarray") -> np.ndarray:
    out = (model.open_loop_gain * (vin - model.offset)
           + model.temp_coeff * (temp - model.nominal_temp))
    return np.clip(out, model.rail_low, model.rail_high)


def sine_stimulus(n_samples: int, duration: float, dc: float, amplitude: float,
                  frequency: float) -> Waveform:
    """Transient stimulus dc + amplitude * sin(2*pi*frequency*t) over n_samples.

    The sample period is duration / n_samples.
    """
    if n_samples < 1:
        raise ConfigurationError("n_samples must be >= 1", config_key="n_samples")
    dt = duration / n_samples
    t = np.arange(n_samples) * dt
    return Waveform(dc + amplitude * np.sin(2.0 * np.pi * frequency * t),
                    dt, "stimulus")


def simulate_opamp(model: OpampModel, mode: str,
                   stimulus: "Waveform | SweepSpec") -> Waveform:
    """Run one analysis on an opamp model.

    :param mode: "transient" (stimulus: Waveform of input voltage vs time),
        "dc_input_sweep" (stimulus: SweepSpec over input volts) or
        "dc_temp_sweep" (stimulus: SweepSpec over degrees Celsius at the
        sweep's bias input voltage)
    :returns: output Waveform; sweep outputs use a unit sample "period" per step
    """
    if mode == "transient":
        if not isinstance(stimulus, Waveform):
            raise InputError("transient analysis needs a Waveform stimulus")
        dt = stimulus.sample_period
        if model.open_collapse:
            # Broken output stage: input no longer drives the output; it
            # drifts onto the high rail with tau = 10 sample periods.
            alpha = 1.0 / 10.0
            out = []
            y = float(_static_transfer(model, stimulus.samples[:1], model.temperature)[0])
            for _ in range(len(stimulus)):
                y = y + alpha * (model.rail_high - y)
                out.append(y)
            return Waveform(np.array(out), dt, "output")
        target = _static_transfer(model, stimulus.samples, model.temperature).tolist()
        max_step = model.slew_rate * dt
        y = target[0]
        out = [y]
        for t in target[1:]:
            d = t - y
            if d > max_step:
                d = max_step
            elif d < -max_step:
                d = -max_step
            y = y + d
            out.append(y)
        return Waveform(np.array(out), dt, "output")
    if mode == "dc_input_sweep":
        if not isinstance(stimulus, SweepSpec):
            raise InputError("dc_input_sweep needs a SweepSpec stimulus")
        if model.open_collapse:
            out = np.full(stimulus.n_points, model.rail_high)
        else:
            out = _static_transfer(model, stimulus.values, model.temperature)
        return Waveform(out, 1.0, "dc_input_sweep")
    if mode == "dc_temp_sweep":
        if not isinstance(stimulus, SweepSpec):
            raise InputError("dc_temp_sweep needs a SweepSpec stimulus")
        if model.open_collapse:
            out = np.full(stimulus.n_points, model.rail_high)
        else:
            out = _static_transfer(model, np.full(stimulus.n_points, stimulus.bias),
                                   stimulus.values)
        return Waveform(out, 1.0, "dc_temp_sweep")
    raise ConfigurationError(f"unknown analysis mode {mode!r}", config_key="analysis")


@dataclass
class AmplifierStage:
    opamp: OpampModel
    closed_loop_gain: float

    def __post_init__(self):
        if self.closed_loop_gain < 1.0:
            raise ConfigurationError("closed_loop_gain must be >= 1",
                                     config_key="gains")


@dataclass
class KStageAmplifier:
    """A chain of closed-loop amplifier stages, some possibly fault-injected."""

    stages: list[AmplifierStage]
    anomalous_stages: frozenset[int] = frozenset()

    def __post_init__(self):
        if len(self.stages) < 1:
            raise ConfigurationError("amplifier needs at least one stage",
                                     config_key="k")
        bad = [i for i in self.anomalous_stages if not 0 <= i < len(self.stages)]
        if bad:
            raise ConfigurationError(
                f"anomalous stage indices out of range: {sorted(bad)}",
                config_key="anomalous_stages")
        self.anomalous_stages = frozenset(self.anomalous_stages)

    @property
    def k(self) -> int:
        return len(self.stages)


def stage_model(stage: AmplifierStage) -> OpampModel:
    """Effective opamp for one closed-loop stage.

    Finite-gain correction: a stage asking for closed-loop gain G out of an
    opamp with open-loop gain A delivers G*A/(A+G).
    """
    a = stage.opamp.open_loop_gain
    g = stage.closed_loop_gain
    return replace(stage.opamp, open_loop_gain=g * a / (a + g))


def build_kstage(base: OpampModel, k: int, gains: list[float],
                 anomalous_stages=(), fault=None) -> KStageAmplifier:
    """Assemble a k-stage amplifier from one base opamp model.

    :param gains: per-stage closed-loop gains, length k
    :param anomalous_stages: stage indices that receive the fault-transformed
        base model
    :param fault: a ComponentFault applied to the anomalous stages, or None
    """
    if k < 1:
        raise ConfigurationError("k must be >= 1", config_key="k")
    if len(gains) != k:
        raise ConfigurationError(f"expected {k} gains, got {len(gains)}",
                                 config_key="gains")
    anomalous = frozenset(anomalous_stages)
    if fault is not None and anomalous:
        from .inject import apply_component_fault  # late import: inject depends on this module
        faulted = apply_component_fault(base, fault)
    else:
        faulted = base
    stages = [AmplifierStage(faulted if i in anomalous else base, float(g))
              for i, g in enumerate(gains)]
    return KStageAmplifier(stages, anomalous)


def simulate_kstage(amp: KStageAmplifier, stimulus: Waveform) -> Waveform:
    """Transient-simulate the stage chain; each stage feeds the next."""
    signal = stimulus
    for st in amp.stages:
        signal = simulate_opamp(stage_model(st), "transient", signal)
    return signal.copy_with(signal.samples, "output")


def default_vref_component_model() -> OpampModel:
    """Component-level view of the reference: a buffer trimmed to 1.2 V out."""
    return OpampModel(open_loop_gain=10.0, rail_low=0.0, rail_high=2.5,
                      offset=-0.12, slew_rate=5.0e7, temp_coeff=0.002,
                      nominal_temp=25.0)


def waveform_to_csv(w: Waveform, path) -> None:
    """Write ``t,value`` rows; times carry 13 significant digits."""
    with open(path, "w") as fh:
        fh.write("t,value\n")
        for i, v in enumerate(w.samples):
            fh.write(f"{i * w.sample_period:.12e},{v:.12e}\n")


def waveform_from_csv(path, name: str = "") -> Waveform:
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "t,value":
            raise InputError(f"{path}: expected header 't,value', got {header!r}")
        t, v = [], []
        try:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                a, b = line.split(",")
                t.append(float(a))
                v.append(float(b))
        except ValueError:
            raise InputError(f"{path}: expected 't,value' numbers, got {line!r}") from None
    if len(v) < 2:
        raise InputError(f"{path}: need at least 2 samples")
    dt = t[1] - t[0]
    if dt <= 0:
        raise InputError(f"{path}: non-increasing time axis")
    # waveform_to_csv's 13-digit times sit within ~1e-12 of t0 + i*dt
    times = np.array(t)
    if np.any(np.abs(times - times[0] - np.arange(times.size) * dt)
              > 1e-6 * (np.abs(times) + dt)):
        raise InputError(f"{path}: time axis is not uniformly spaced")
    return Waveform(np.array(v), dt, name)
