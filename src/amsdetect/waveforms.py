"""Behavioral models of the monitored circuits.

Implementation notes:

* Everything here is a behavioral (block-level) model, not a device-level
  simulation.  The voltage-reference chain is four blocks wired in series --
  input source -> PLL -> trig-function shaper -> low-pass output stage -- and
  each block is a pure function of its predecessor's samples plus its own
  parameters.  Block-level anomaly injection stamps a block's output before
  the next block runs, so the anomaly propagates downstream
  (``inject._walk_chain``).
* The input sinusoid is peak-calibrated: the raw sample grid rarely hits the
  analytic peak of sin(), so the samples are rescaled to make max(|input|)
  equal the configured amplitude exactly (injection magnitudes are expressed
  as multiples of that maximum).
* Opamps use a clipped linear transfer with input offset, a linear temperature
  drift term, and slew-rate limiting in transient mode.  Multi-stage amplifier
  chains model each closed-loop stage with the finite-gain correction
  g_eff = G*A/(A+G) so open-loop-gain faults remain visible through feedback.
* The elementwise blocks (input, PLL, trig, the static opamp transfer) work
  on ``(rows, n_samples)`` arrays, one instance per row, so a caller can
  simulate a few instances at once.  The time recursions (output-stage
  Euler step, slew limiter) each have one kernel that steps a time-major
  ``(n_samples, width)`` buffer in place, one instance per column:
  ``_lowpass_steps`` and ``_slew_steps``.  An open opamp output's collapse
  onto its high rail is the low-pass kernel with a constant drive.
  At width > 1 a kernel steps whole numpy rows with ``out=`` ufuncs; at
  width 1 (the public single-instance functions) it loops over Python
  floats from ``tolist()``, since a 1-wide numpy step costs about 15 times
  more per sample.  Both are the same IEEE double operations in the same
  order as the scalar loop, so every column is bit-identical to simulating
  that instance alone.
* A column of a time-major buffer is strided.  Reductions over strided
  samples may sum in another order, so features are taken only from
  C-contiguous rows (``np.ascontiguousarray(buf[:, cols].T)``).
* Closed forms (a geometric series, an ``lfilter``-style recursion) are
  off-limits: they round differently and change the output bytes.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from .errors import ConfigurationError, InputError, _read_text

__all__ = [
    "Waveform",
    "VrefConfig",
    "OpampModel",
    "SweepSpec",
    "simulate_vref",
    "simulate_opamp",
    "sine_stimulus",
    "build_kstage",
    "vref_output_block",
    "default_vref_component_model",
    "waveform_to_csv",
    "waveform_from_csv",
]


def _check_finite(samples: np.ndarray) -> None:
    # min and max propagate NaN and expose +-inf without a mask of the
    # samples; on a time-major buffer that mask alone raised suite-full's
    # peak RSS by about 1 MB
    if not (np.isfinite(samples.min()) and np.isfinite(samples.max())):
        raise InputError("waveform samples must be finite")


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
        _check_finite(self.samples)
        if not (isinstance(self.sample_period, (int, float))
                and 0 < self.sample_period <= sys.float_info.max):
            raise InputError("sample_period must be finite and > 0")
        self.sample_period = float(self.sample_period)
        if (self.samples.size - 1) * self.sample_period == math.inf:
            raise InputError("time axis overflows: (n - 1) * sample_period is inf")

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


def _input_rows(config: VrefConfig, n_samples: int, sample_period: float,
                seeds) -> np.ndarray:
    """Input-source samples, one row per noise seed: (len(seeds), n_samples)."""
    base = _nominal_carrier(n_samples, sample_period, config)
    if config.noise_std <= 0:
        return np.tile(base, (len(seeds), 1))
    rows = np.stack([np.random.default_rng(s).normal(0.0, config.noise_std, n_samples)
                     for s in seeds])
    rows += base
    return rows


def _pll_rows(x: np.ndarray, sample_period: float, config: VrefConfig
              ) -> tuple[np.ndarray, np.ndarray]:
    """PLL frequency trace and intensity of each row of input samples.

    Modeled at lock: a first-order transient ramps the VCO to multiplier*f_in,
    and the input's deviation from the nominal carrier pushes the frequency
    through pll_deviation_gain (zero on a clean noiseless input).
    """
    n = x.shape[-1]
    t = np.arange(n) * sample_period
    lock = 1.0 - np.exp(-t / config.pll_lock_tau)
    # in place, with each IEEE sum and product's operands swapped at most:
    # f = multiplier * f_in * lock + deviation_gain * (x - carrier)
    f_inst = np.subtract(x, _nominal_carrier(n, sample_period, config))
    np.multiply(f_inst, config.pll_deviation_gain, out=f_inst)
    np.add(f_inst, config.pll_multiplier * config.input_frequency * lock, out=f_inst)
    # phase = 2 * pi * cumsum(f) * dt, and the intensity is its sine
    phase = np.cumsum(f_inst, axis=-1)
    np.multiply(phase, 2.0 * math.pi, out=phase)
    np.multiply(phase, sample_period, out=phase)
    return f_inst, np.sin(phase, out=phase)


def _trig_rows(intensity: np.ndarray, config: VrefConfig) -> np.ndarray:
    """sin(trig_gain * pi * intensity), in one new array."""
    out = np.multiply(intensity, config.trig_gain * math.pi)
    return np.sin(out, out=out)


def _output_drive(trig: np.ndarray, config: VrefConfig,
                  out: np.ndarray | None = None) -> np.ndarray:
    """The output stage's drive, level + gain * trig, for each trig sample."""
    out = np.multiply(trig, config.output_gain, out=out)
    return np.add(out, config.output_level, out=out)


def _one(p) -> float:
    """A width-1 buffer's parameter, given as a scalar or a 1-vector."""
    return float(np.ravel(p)[0])


def _float_errors():
    """Overflow and NaN stay silent in the row loops, as in Python float
    arithmetic; the finite check on the result reports them."""
    return np.errstate(over="ignore", invalid="ignore")


def _lowpass_steps(buf: np.ndarray, alpha, start=None) -> None:
    """Forward-Euler low-pass over a time-major buffer, in place.

    ``buf`` holds the drive, shape (n_samples, width); ``alpha`` (dt / tau)
    is a scalar or one value per column.  Row t becomes
    y_t = y_{t-1} + alpha * (drive_t - y_{t-1}), where y_{-1} is ``start``
    (one value per column) or 0 V.
    """
    n, width = buf.shape
    if width == 1:
        a = _one(alpha)
        out = []
        y = 0.0 if start is None else _one(start)
        for d in buf[:, 0].tolist():
            y = y + a * (d - y)
            out.append(y)
        buf[:, 0] = out
        return
    prev = np.zeros(width) if start is None else start
    tmp = np.empty(width)
    with _float_errors():
        for row in buf:
            np.subtract(row, prev, out=tmp)
            np.multiply(tmp, alpha, out=tmp)
            np.add(prev, tmp, out=row)
            prev = row


def _slew_steps(buf: np.ndarray, max_step) -> None:
    """Slew-rate limiter over a time-major buffer of targets, in place.

    Row 0 is kept; each later row moves from the previous output toward
    its target by at most ``max_step`` (> 0; a scalar or one value per
    column).
    """
    n, width = buf.shape
    if width == 1:
        ms = _one(max_step)
        target = buf[:, 0].tolist()
        y = target[0]
        out = [y]
        for t in target[1:]:
            d = t - y
            if d > ms:
                d = ms
            elif d < -ms:
                d = -ms
            y = y + d
            out.append(y)
        buf[:, 0] = out
        return
    lo = -np.asarray(max_step, dtype=np.float64)
    tmp = np.empty(width)
    prev = buf[0]
    with _float_errors():
        for row in buf[1:]:
            np.subtract(row, prev, out=tmp)
            np.maximum(tmp, lo, out=tmp)
            np.minimum(tmp, max_step, out=tmp)
            np.add(prev, tmp, out=row)
            prev = row


def vref_output_block(trig: Waveform, config: VrefConfig) -> Waveform:
    """Output stage: first-order low-pass settling to the nominal level.

    Forward-Euler integration of tau*dy/dt = (level + gain*trig) - y from a
    0 V power-up state.
    """
    dt = trig.sample_period
    buf = _output_drive(trig.samples, config)[:, None]
    _lowpass_steps(buf, dt / config.output_tau)
    return Waveform(buf[:, 0], dt, "output")


def simulate_vref(config: VrefConfig, n_samples: int = 1500,
                  duration: float = 20.0e-6, seed: int | None = 0) -> dict[str, Waveform]:
    """Simulate the full reference chain: its five taps by name, in chain
    order (input, pll_frequency, pll_intensity, trig, output).

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
    dt = duration / n_samples
    signals = {name: Waveform(x[0], dt, name) for name, x in _walk_chain(
        config, _input_rows(config, n_samples, dt, [seed]), dt, [[]]).items()}
    signals["output"] = vref_output_block(signals["trig"], config)
    return signals


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
        for key in ("start", "stop", "bias"):
            if not math.isfinite(getattr(self, key)):
                raise ConfigurationError(
                    f"sweep {key} must be finite, got {getattr(self, key)!r}",
                    config_key=key)

    @property
    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.n_points)


_COLUMN_FIELDS = ("open_loop_gain", "offset", "temp_coeff", "nominal_temp",
                  "temperature", "rail_low", "rail_high", "slew_rate",
                  "open_collapse")


def _columns(models) -> SimpleNamespace:
    """One vector per OpampModel field, one entry per model (buffer column)."""
    return SimpleNamespace(**{f: np.array([getattr(m, f) for m in models])
                              for f in _COLUMN_FIELDS})


def _static_transfer(cols: SimpleNamespace, buf: np.ndarray, temp) -> None:
    """buf <- clip(gain * (buf - offset) + temp_coeff * (temp - nominal_temp), rails).

    In place; ``cols`` comes from ``_columns`` and its vectors broadcast
    along the last axis, one model per column.  The product is taken as
    (buf - offset) * gain: IEEE multiplication commutes, so each element
    has the bits of one model's gain * (vin - offset).
    """
    np.subtract(buf, cols.offset, out=buf)
    np.multiply(buf, cols.open_loop_gain, out=buf)
    np.add(buf, cols.temp_coeff * (temp - cols.nominal_temp), out=buf)
    np.clip(buf, cols.rail_low, cols.rail_high, out=buf)


_COLLAPSE_ALPHA = 1.0 / 10.0   # an open output drifts with tau = 10 sample periods


def _opamp_transient(buf: np.ndarray, models, sample_period: float) -> None:
    """Transient response of one model per column of a time-major input buffer.

    In place: the static transfer gives each column's targets, then the
    slew limiter steps the intact columns.  A broken (open) output no
    longer follows its input: it is the low-pass toward the high rail,
    starting from its first target, with alpha ``_COLLAPSE_ALPHA``.
    """
    cols = _columns(models)
    _static_transfer(cols, buf, cols.temperature)
    for broken in (False, True):
        idx = np.flatnonzero(cols.open_collapse == broken)
        if idx.size == 0:
            continue
        one_run = idx[-1] - idx[0] + 1 == idx.size    # then step a view
        sub = buf[:, idx[0]:idx[-1] + 1] if one_run else buf[:, idx]
        if broken:
            start = sub[0].copy()
            sub[:] = cols.rail_high[idx]
            _lowpass_steps(sub, _COLLAPSE_ALPHA, start)
        else:
            _slew_steps(sub, (cols.slew_rate * sample_period)[idx])
        if not one_run:
            buf[:, idx] = sub


def _simulate_columns(chains, mode: str, stimulus: "Waveform | SweepSpec") -> np.ndarray:
    """Run one analysis on one opamp chain per column; time-major output.

    ``chains`` holds one list of per-stage models per column; every stage
    feeds the next.  Sweeps use each chain's only stage.  Each stage's
    output must be finite, as each stage's Waveform must be.
    :returns: (samples or sweep points, len(chains)) array
    """
    if mode == "transient":
        buf = np.empty((len(stimulus), len(chains)))
        buf[...] = stimulus.samples[:, None]
        for stage in zip(*chains):
            _opamp_transient(buf, stage, stimulus.sample_period)
            _check_finite(buf)
        return buf
    cols = _columns([stages[0] for stages in chains])
    buf = np.empty((stimulus.n_points, len(chains)))
    if mode == "dc_input_sweep":
        buf[...] = stimulus.values[:, None]
        _static_transfer(cols, buf, cols.temperature)
    else:
        buf[...] = stimulus.bias
        _static_transfer(cols, buf, stimulus.values[:, None])
    buf[:, cols.open_collapse] = cols.rail_high[cols.open_collapse]
    _check_finite(buf)
    return buf


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
    elif mode in ("dc_input_sweep", "dc_temp_sweep"):
        if not isinstance(stimulus, SweepSpec):
            raise InputError(f"{mode} needs a SweepSpec stimulus")
        dt = 1.0
    else:
        raise ConfigurationError(f"unknown analysis mode {mode!r}",
                                 config_key="analysis")
    out = _simulate_columns([[model]], mode, stimulus)[:, 0]
    return Waveform(out, dt, "output" if mode == "transient" else mode)


def build_kstage(base: OpampModel, gains, anomalous_stages=(),
                 fault=None) -> list[OpampModel]:
    """The effective opamp of each stage of a closed-loop amplifier chain.

    There are k = len(gains) stages, built from one base opamp model.
    Finite-gain correction: a stage asking for closed-loop gain G out of an
    opamp with open-loop gain A delivers G*A/(A+G).

    :param gains: per-stage closed-loop gains, each >= 1
    :param anomalous_stages: stage indices that receive the fault-transformed
        base model
    :param fault: a ComponentFault applied to the anomalous stages, or None
    """
    if not gains:
        raise ConfigurationError("amplifier needs at least one stage", config_key="k")
    anomalous, faulted = frozenset(anomalous_stages), base
    if fault is not None and anomalous:
        from .inject import apply_component_fault  # late import: inject depends on this module
        faulted = apply_component_fault(base, fault)
    stages = []
    for i, g in enumerate(map(float, gains)):
        if g < 1.0:
            raise ConfigurationError("closed_loop_gain must be >= 1",
                                     config_key="gains")
        opamp = faulted if i in anomalous else base
        a = opamp.open_loop_gain
        stages.append(replace(opamp, open_loop_gain=g * a / (a + g)))
    bad = sorted(i for i in anomalous if not 0 <= i < len(stages))
    if bad:
        raise ConfigurationError(f"anomalous stage indices out of range: {bad}",
                                 config_key="anomalous_stages")
    return stages


def default_vref_component_model() -> OpampModel:
    """Component-level view of the reference: a buffer trimmed to 1.2 V out."""
    return OpampModel(open_loop_gain=10.0, rail_low=0.0, rail_high=2.5,
                      offset=-0.12, slew_rate=5.0e7, temp_coeff=0.002,
                      nominal_temp=25.0)


# Rows per block in waveform_to_csv: formatting a block takes about 1 MB
# whatever the length of the waveform, and the time-column memo holds at
# most four blocks of 160 kB.
_CSV_ROWS = 4096

# _e12_fields lays '%.12e' of a value out in 20 bytes, as words of a
# uint32/uint16 view: [pad, sign or pad, lead digit, "."], six digit pairs,
# ["e", exponent sign, exponent digits].  No formatted number holds _PAD.
_PAD = b"\0"
_E_LO, _E_HI = -10, 34      # exponents whose scale 10**(12 - e) is an exact double
_EXPONENTS = range(_E_LO, _E_HI + 2)    # one more for the carry into 10**(e + 1)
_SCALE_UP = np.array([float(10 ** max(12 - e, 0)) for e in _EXPONENTS])
_SCALE_DOWN = np.array([float(10 ** max(e - 12, 0)) for e in _EXPONENTS])
_HEADS = np.frombuffer(b"".join(_PAD + b"%c%d." % (sign, d)
                                for sign in _PAD + b"-" for d in range(10)), np.uint32)
_PAIRS = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), np.uint16)
_TAILS = np.frombuffer(b"".join(b"e%+03d" % e for e in _EXPONENTS), np.uint32)
_PLACES = np.array([1e12, 1e10, 1e8, 1e6, 1e4, 1e2, 1.0])[:, None]


def _e12_fields(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``'%.12e' % x`` of each finite value, as rows of ``_PAD``-padded bytes.

    :returns: a (len(v), 20) uint8 array and a mask of the values whose
        rows hold placeholder digits instead: those whose scaled mantissa
        lands on a half or outside [1e12, 1e13), which takes in zero and
        every |x| outside about 1e-10 to 1e35.  :func:`waveform_to_csv`
        says why the other rows equal ``%``.
    """
    a = np.abs(v)
    with np.errstate(divide="ignore"):
        e = np.log10(a)
    np.floor(e, out=e)
    np.clip(e, _E_LO, _E_HI, out=e)   # a wrong or clipped e puts s out of range
    idx = e.astype(np.intp)
    idx -= _E_LO
    # s = a * 10**(12 - e), a single rounding of the exact scaled value
    s = a * _SCALE_UP[idx]
    s /= _SCALE_DOWN[idx]
    m = np.floor(s)
    frac = s - m
    ok = frac != 0.5
    ok &= s >= 1e12
    ok &= s < 1e13
    m += frac > 0.5
    carry = m == 1e13
    m[carry] = 1e12
    idx += carry
    m *= ok
    # floor(m / 10**k) is exact for m < 1e13: row 0 is the lead digit,
    # rows 1-6 the digit pairs
    q = m / _PLACES
    np.floor(q, out=q)
    q[1:] -= 100.0 * q[:-1]
    digits = q.astype(np.intp)
    digits[0] += 10 * (v < 0)
    fields = np.empty((v.size, 20), np.uint8)
    fields.view(np.uint32)[:, 0] = _HEADS[digits[0]]
    fields.view(np.uint16)[:, 2:8] = _PAIRS[digits[1:]].T
    fields.view(np.uint32)[:, 4] = _TAILS[idx]
    return fields, ~ok


@functools.lru_cache(maxsize=4)
def _time_rows(start: int, stop: int, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``start..stop-1`` of a CSV body with an empty value slot.

    :returns: (rows, 39) uint8: the 18-byte time ``t_i = i * dt``, ``,``,
        19 value bytes, ``\\n``; and the mask of rows whose time
        :func:`_e12_fields` left unformatted.  Both are read-only.
    """
    fields, slow = _e12_fields(np.arange(start, stop) * dt)
    rows = np.empty((stop - start, 39), np.uint8)
    rows[:, :18] = fields[:, 2:]     # a time is >= 0: no sign
    rows[:, 18] = ord(",")
    rows[:, 38] = ord("\n")
    rows.flags.writeable = slow.flags.writeable = False
    return rows, slow


def _csv_block(start: int, dt: float, values: np.ndarray) -> bytes:
    """The CSV rows of samples ``start..start+len(values)-1``."""
    template, slow_t = _time_rows(start, start + values.size, dt)
    fields, slow_v = _e12_fields(values)
    rows = template.copy()
    rows[:, 19:38] = fields[:, 1:]
    text = memoryview(rows.reshape(-1))
    parts, at = [], 0
    for i in np.flatnonzero(slow_t | slow_v).tolist():
        parts += [text[at * 39:i * 39],
                  b"%.12e,%.12e\n" % ((start + i) * dt, values[i])]
        at = i + 1
    parts.append(text[at * 39:])
    return b"".join(parts).replace(_PAD, b"")


def waveform_to_csv(w: Waveform, path) -> None:
    """Write a ``t,value`` header, then one ``t_i,x_i`` row per sample.

    Both columns are ``%.12e``: 13 significant digits, which do not
    round-trip every float64, so reading a file back can move a sample by
    up to half a unit in its 13th digit.  ``t_i = i * sample_period``.

    The numbers are formatted as arrays, one block of ``_CSV_ROWS`` rows at
    a time, with the bytes of ``%``, which rounds correctly, ties to even.
    With e = floor(log10|x|), the 13-digit mantissa is the exact
    S = |x| * 10**(12 - e) rounded to an integer.  The power of ten is an
    exact double (|12 - e| <= 22), so the computed s is S after one
    correctly rounded product or quotient: within half an ulp, at most
    s * 2**-53, of S.  That rounding is monotone, and 10**12, 10**13 and
    every n + 1/2 below 10**13 are doubles, so S lies on the same side of
    each of them that s is not equal to.  Hence when s is not on a half and
    10**12 <= s < 10**13, round(s) is the mantissa ``%`` prints; a round(s)
    of 10**13 carries to 10**12 with exponent e + 1.  (An s of exactly
    10**12 may come from an S just below it, whose mantissa at exponent
    e - 1 rounds up and carries to the same text.)  Every other row is
    formatted by ``%`` itself: an s on a half, where S may lie on either
    side, and |x| outside about 1e-10 to 1e35, zero and three-digit
    exponents included.  A block's time column is memoized by its rows and
    sample period, which the taps of one simulation share.
    """
    n, dt = len(w), w.sample_period
    with open(path, "wb") as fh:
        fh.write(b"t,value\n")
        for start in range(0, n, _CSV_ROWS):
            fh.write(_csv_block(start, dt, w.samples[start:start + _CSV_ROWS]))


# every byte but "," and "\n", which UTF-8 uses for no other character
_NOT_SEPARATORS = bytes(sorted(set(range(256)) - set(b",\n")))


def _bulk_columns(body: str) -> tuple[list, list] | None:
    """Both columns of a body whose every line is ``<cell>,<cell>``, or None."""
    text = body.rstrip("\n")   # trailing blank lines are skipped anyway
    seps = text.encode().translate(None, _NOT_SEPARATORS)
    if seps != b",\n" * (len(seps) // 2) + b",":
        return None
    cells = text.replace("\n", ",").split(",")
    try:
        return list(map(float, cells[0::2])), list(map(float, cells[1::2]))
    except ValueError:
        return None


def waveform_from_csv(path, name: str = "") -> Waveform:
    """Read a waveform CSV such as :func:`waveform_to_csv` writes.

    The grammar: a first line ``t,value``, then one ``<time>,<value>`` line
    per sample.  Every line is stripped of surrounding whitespace, and blank
    lines are skipped; ``\\r\\n`` or ``\\r`` line ends and a missing final
    newline are accepted.  A cell is any text Python's ``float()`` takes
    (``nan``, ``1_0`` and ``inf`` included; non-finite times and values are
    then rejected).  The sample period is ``t_1 - t_0``.  A body whose
    separators run exactly ``,\\n,\\n...`` is converted in bulk; any other
    goes through a line-by-line loop, which names the first bad line.

    :raises InputError: the file does not decode as text; the header is
        not ``t,value``; a non-blank line is not two comma-separated numbers
        (the message quotes the first such line); there are fewer than 2
        samples; a time is not finite; the time axis does not increase, or
        strays from ``t_0 + i * (t_1 - t_0)`` by more than
        ``1e-6 * (|t_i| + dt)``; a value is not finite
    """
    header, _, body = _read_text(path).partition("\n")
    header = header.strip()
    if header != "t,value":
        raise InputError(f"{path}: expected header 't,value', got {header!r}")
    t, v = _bulk_columns(body) or ([], [])
    if not v:   # blank lines, a stray comma or a bad cell: go line by line
        try:
            for line in body.split("\n"):
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
    times = np.array(t)
    if not np.isfinite(times).all():
        raise InputError(f"{path}: time axis has a non-finite value")
    dt = t[1] - t[0]
    if dt <= 0:
        raise InputError(f"{path}: non-increasing time axis")
    # waveform_to_csv's 13-digit times sit within ~1e-12 of t0 + i*dt
    if np.any(np.abs(times - times[0] - np.arange(times.size) * dt)
              > 1e-6 * (np.abs(times) + dt)):
        raise InputError(f"{path}: time axis is not uniformly spaced")
    return Waveform(np.array(v), dt, name)
