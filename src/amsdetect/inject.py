"""Anomaly and fault injection.

Two families are supported:

* point anomalies stamped into a sampled signal, either at seeded random
  positions (amplitude expressed as a multiple of the clean signal's maximum
  absolute value, sign-preserving) or periodically at every sample whose value
  reaches a threshold fraction of the clean positive peak;
* component faults expressed as transformations of a behavioral opamp model
  (output-stage degradation, parametric temperature excursion, open/short).

Multipoint injection perturbs chosen blocks of a reference-chain simulation
and re-runs every downstream block so the anomalies propagate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import ConfigurationError, InjectionError, InputError
from .waveforms import (OpampModel, VrefBlockSignals, VrefConfig, Waveform,
                        _check_finite, _lowpass_steps, _output_drive,
                        _pll_rows, _trig_rows)
# Unused here; perfbench/test_perfbench.py checks its tracer at this binding.
from .waveforms import vref_output_block  # noqa: F401

__all__ = [
    "InjectionLocation",
    "PointRandom",
    "PointPeriodic",
    "AnomalySpec",
    "InjectionRecord",
    "FaultKind",
    "ComponentFault",
    "inject_point_random",
    "inject_point_periodic",
    "inject_multipoint",
    "apply_anomaly_spec",
    "apply_component_fault",
    "record_to_csv",
]


class InjectionLocation(Enum):
    """Block whose output signal receives the injection."""

    INPUT_A = "InputA"
    PLL_B = "PllB"
    TRIG_C = "TrigC"


@dataclass(frozen=True)
class PointRandom:
    """Randomly placed point anomalies.

    :param rate_pct: percentage of samples to perturb, 0 < rate < 100
    :param amp_low: lower amplitude multiple of max(|signal|)
    :param amp_high: upper amplitude multiple of max(|signal|)
    """

    rate_pct: float = 0.5
    amp_low: float = 2.0
    amp_high: float = 5.0

    def __post_init__(self):
        if not 0.0 < self.rate_pct < 100.0:
            raise ConfigurationError("rate_pct must be in (0, 100)",
                                     config_key="rate_pct")
        if not 0.0 < self.amp_low <= self.amp_high < math.inf:   # NaN fails too
            raise ConfigurationError("need finite 0 < amp_low <= amp_high",
                                     config_key="amp_low")


@dataclass(frozen=True)
class PointPeriodic:
    """Deterministic anomalies at every sample above a peak-relative threshold.

    :param threshold_frac: fraction of max(signal) that triggers injection,
        in (0, 1]
    :param delta_frac: added value as a fraction of max(signal), > 0
    """

    threshold_frac: float = 0.9
    delta_frac: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.threshold_frac <= 1.0:
            raise ConfigurationError("threshold_frac must be in (0, 1]",
                                     config_key="threshold_frac")
        if self.delta_frac <= 0:
            raise ConfigurationError("delta_frac must be > 0",
                                     config_key="delta_frac")


@dataclass(frozen=True)
class AnomalySpec:
    """One injection: what kind, at which block, with which seed."""

    kind: "PointRandom | PointPeriodic"
    location: InjectionLocation
    seed: int = 0


@dataclass
class InjectionRecord:
    """Audit trail of one injection pass over one signal."""

    location: InjectionLocation | None
    positions: np.ndarray          # strictly increasing sample indices
    original: np.ndarray           # pre-injection values at those positions
    injected: np.ndarray           # post-injection values at those positions
    description: str = ""

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.int64)
        self.original = np.asarray(self.original, dtype=np.float64)
        self.injected = np.asarray(self.injected, dtype=np.float64)
        if not (len(self.positions) == len(self.original) == len(self.injected)):
            raise InputError("record arrays must have equal length")
        if len(self.positions) and np.any(np.diff(self.positions) <= 0):
            raise InputError("record positions must be strictly increasing")


def _count_half_up(rate_pct: float, n: int) -> int:
    # round-half-up, never below one anomaly
    return max(1, math.floor(rate_pct / 100.0 * n + 0.5))


def inject_point_random(w: Waveform, rate_pct: float, amp_low: float,
                        amp_high: float, seed: int | None = 0
                        ) -> tuple[Waveform, InjectionRecord]:
    """Stamp seeded random point anomalies into a copy of ``w``.

    The number of anomalies is round-half-up(rate_pct/100 * N) with a floor of
    one; positions are drawn uniformly without replacement; each injected value
    is sign(w[i]) * u * max(|w|) with u ~ U[amp_low, amp_high].
    """
    params = PointRandom(rate_pct, amp_low, amp_high)  # validates ranges
    n = len(w)
    count = _count_half_up(params.rate_pct, n)
    if count >= n:
        raise InjectionError(f"rate {rate_pct}% asks for {count} anomalies "
                             f"in a {n}-sample signal")
    peak = float(np.max(np.abs(w.samples)))
    if peak <= 0.0:
        raise InjectionError("cannot scale anomalies on an all-zero signal")
    rng = np.random.default_rng(seed)
    positions = np.sort(rng.choice(n, size=count, replace=False))
    mult = rng.uniform(params.amp_low, params.amp_high, count)
    signs = np.where(w.samples[positions] < 0.0, -1.0, 1.0)
    values = signs * mult * peak
    out = w.samples.copy()
    original = out[positions].copy()
    out[positions] = values
    rec = InjectionRecord(None, positions, original, values,
                          f"random rate={params.rate_pct}% "
                          f"amp=[{params.amp_low},{params.amp_high}]x seed={seed}")
    return w.copy_with(out), rec


def inject_point_periodic(w: Waveform, threshold_frac: float,
                          delta_frac: float) -> tuple[Waveform, InjectionRecord]:
    """Raise every sample at or above threshold_frac * max(w) by delta_frac * max(w).

    Deterministic: no RNG is consumed.  ``delta_frac`` = 0 is allowed here (an
    identity pass that still records the would-be positions).
    """
    if not 0.0 < threshold_frac <= 1.0:
        raise InjectionError("threshold_frac must be in (0, 1]")
    if delta_frac < 0.0:
        raise InjectionError("delta_frac must be >= 0")
    peak = float(np.max(w.samples))
    if peak <= 0.0:
        raise InjectionError("periodic injection needs a positive signal peak")
    positions = np.flatnonzero(w.samples >= threshold_frac * peak)
    if positions.size == 0:
        raise InjectionError("no sample reaches the injection threshold")
    out = w.samples.copy()
    original = out[positions].copy()
    out[positions] = original + delta_frac * peak
    rec = InjectionRecord(None, positions, original, out[positions].copy(),
                          f"periodic threshold={threshold_frac} delta={delta_frac}")
    return w.copy_with(out), rec


def apply_anomaly_spec(w: Waveform, spec: AnomalySpec) -> tuple[Waveform, InjectionRecord]:
    """Apply one AnomalySpec to a bare waveform (no propagation)."""
    if isinstance(spec.kind, PointRandom):
        out, rec = inject_point_random(w, spec.kind.rate_pct, spec.kind.amp_low,
                                       spec.kind.amp_high, spec.seed)
    elif isinstance(spec.kind, PointPeriodic):
        out, rec = inject_point_periodic(w, spec.kind.threshold_frac,
                                         spec.kind.delta_frac)
    else:
        raise InputError(f"unknown anomaly kind {type(spec.kind).__name__}")
    rec.location = spec.location
    return out, rec


def _walk_chain(cfg: VrefConfig, inp: np.ndarray, sample_period: float,
                specs: list[list[AnomalySpec]],
                upstream: dict[str, np.ndarray] | None = None,
                with_output: bool = True
                ) -> tuple[dict[str, np.ndarray | None], list[InjectionRecord]]:
    """One walk down the chain for a chunk of instances: input -> PLL -> trig -> output.

    ``inp`` holds one instance's input samples per row; ``specs`` holds one
    list of specs per row.  The specs located at a block are stamped, in
    order, on a copy of that block's output signal before the next block
    runs.  While no spec has been stamped yet, each block's signals are
    taken from ``upstream`` (blocks are pure, so re-running them would
    reproduce those signals) and returned as the same arrays; without
    ``upstream`` every block runs.  Every signal must be finite, as every
    Waveform must be.  The output stage runs only when ``with_output`` is
    true; otherwise ``output`` is None.

    :returns: (signal name -> (rows, n_samples) array, records in block
        order, row order within a block)
    """
    records: list[InjectionRecord] = []

    def located(loc: InjectionLocation) -> bool:
        return any(sp.location is loc for row_specs in specs for sp in row_specs)

    def stamp(x: np.ndarray, loc: InjectionLocation) -> np.ndarray:
        if not located(loc):
            return x
        x = x.copy()
        for row, row_specs in zip(x, specs):
            for sp in row_specs:
                if sp.location is loc:
                    w, rec = apply_anomaly_spec(Waveform(row, sample_period), sp)
                    row[:] = w.samples
                    records.append(rec)
        return x

    _check_finite(inp)
    inp = stamp(inp, InjectionLocation.INPUT_A)
    rerun = upstream is None or located(InjectionLocation.INPUT_A)
    if rerun:
        f_trace, intensity = _pll_rows(inp, sample_period, cfg)
        _check_finite(f_trace)
        _check_finite(intensity)
    else:
        f_trace, intensity = upstream["pll_frequency"], upstream["pll_intensity"]
    intensity = stamp(intensity, InjectionLocation.PLL_B)
    rerun = rerun or located(InjectionLocation.PLL_B)
    if rerun:
        trig = _trig_rows(intensity, cfg)
        _check_finite(trig)
    else:
        trig = upstream["trig"]
    trig = stamp(trig, InjectionLocation.TRIG_C)
    rerun = rerun or located(InjectionLocation.TRIG_C)
    out = None
    if with_output and not rerun:
        out = upstream["output"]
    elif with_output:
        buf = np.ascontiguousarray(_output_drive(trig, cfg).T)
        _lowpass_steps(buf, sample_period / cfg.output_tau)
        out = buf.T
        _check_finite(out)
    return {"input": inp, "pll_frequency": f_trace, "pll_intensity": intensity,
            "trig": trig, "output": out}, records


def inject_multipoint(signals: VrefBlockSignals, specs: list[AnomalySpec]
                      ) -> tuple[VrefBlockSignals, list[InjectionRecord]]:
    """Inject anomalies at one or more blocks and propagate downstream.

    Specs are applied in block order (input, then PLL, then trig); after each
    perturbed block, every block downstream of it is re-simulated from the
    perturbed signal.  Injection thresholds and amplitudes are relative to the
    signal as it stands at that block just before the local injection.
    """
    if not specs:
        raise InjectionError("inject_multipoint needs at least one spec")
    dt = signals.input.sample_period
    waves = signals.as_dict()
    upstream = {name: w.samples[None] for name, w in waves.items()}
    out, records = _walk_chain(signals.config, upstream["input"], dt, [specs],
                               upstream)
    return VrefBlockSignals(**{name: waves[name] if x is upstream[name]
                               else Waveform(x[0], dt, name)
                               for name, x in out.items()},
                            config=signals.config), records


class FaultKind(Enum):
    OM_BOTH = "OmBoth"
    OM_PFET = "OmPfet"
    OM_NFET = "OmNfet"
    PARAMETRIC = "Parametric"
    OPEN = "Open"
    SHORT = "Short"


TEMP_RANGE = (-40.0, 125.0)  # qualified operating range, degrees Celsius


@dataclass(frozen=True)
class ComponentFault:
    """A component-level fault; Parametric carries its excursion temperature."""

    kind: FaultKind
    temperature: float | None = None

    def __post_init__(self):
        if self.kind is FaultKind.PARAMETRIC:
            if self.temperature is None:
                raise ConfigurationError("Parametric fault needs a temperature",
                                         config_key="fault_temperature")
            if TEMP_RANGE[0] <= self.temperature <= TEMP_RANGE[1]:
                raise ConfigurationError(
                    f"Parametric temperature {self.temperature} C is inside the "
                    f"qualified range [{TEMP_RANGE[0]}, {TEMP_RANGE[1]}] C",
                    config_key="fault_temperature")
        elif self.temperature is not None:
            raise ConfigurationError(f"{self.kind.value} fault takes no temperature",
                                     config_key="fault_temperature")

    @property
    def key(self) -> str:
        if self.kind is FaultKind.PARAMETRIC:
            return f"{self.kind.value}@{self.temperature!r}"
        return self.kind.value

    @classmethod
    def from_name(cls, name: str, temperature: float | None = None) -> "ComponentFault":
        try:
            kind = FaultKind(name)
        except ValueError:
            raise ConfigurationError(f"unknown fault {name!r}", config_key="experiment")
        if kind is FaultKind.PARAMETRIC:
            return cls(kind, 150.0 if temperature is None else temperature)
        return cls(kind)


def apply_component_fault(model: OpampModel, fault: ComponentFault) -> OpampModel:
    """Return the fault-transformed model; re-applying the same fault is a no-op.

    Output-stage degradations scale the open-loop gain and shift the input
    offset by a fraction of the rail span; Parametric moves the evaluation
    temperature outside the qualified range; Open re-wires the transient
    response into a slow collapse onto the high rail; Short collapses the gain.
    """
    if model.applied_fault == fault.key:
        return model
    span = model.rail_span
    if fault.kind is FaultKind.OM_PFET:
        out = replace(model, open_loop_gain=model.open_loop_gain * 0.4,
                      offset=model.offset + 0.05 * span)
    elif fault.kind is FaultKind.OM_NFET:
        out = replace(model, open_loop_gain=model.open_loop_gain * 0.6,
                      offset=model.offset - 0.05 * span)
    elif fault.kind is FaultKind.OM_BOTH:
        out = replace(model, open_loop_gain=model.open_loop_gain * 0.4 * 0.6,
                      offset=model.offset + 0.05 * span - 0.05 * span)
    elif fault.kind is FaultKind.PARAMETRIC:
        out = replace(model, eval_temp=fault.temperature)
    elif fault.kind is FaultKind.OPEN:
        out = replace(model, open_collapse=True)
    elif fault.kind is FaultKind.SHORT:
        out = replace(model, open_loop_gain=model.open_loop_gain * 0.25)
    else:  # pragma: no cover - enum is closed
        raise ConfigurationError(f"unknown fault kind {fault.kind}")
    return replace(out, applied_fault=fault.key)


def record_to_csv(record: InjectionRecord, path) -> None:
    """Write the audit CSV: ``index,original,injected``."""
    rows = zip(record.positions.tolist(), record.original.tolist(),
               record.injected.tolist())
    cells = tuple(c for row in rows for c in row)
    with open(path, "w") as fh:
        fh.write("index,original,injected\n"
                 + ("%s,%.12e,%.12e\n" * len(record.positions)) % cells)
