"""Anomaly and fault injection.

Two families are supported:

* point anomalies stamped into a sampled signal, either at seeded random
  positions (amplitude expressed as a multiple of the clean signal's maximum
  absolute value, sign-preserving) or periodically at every sample whose value
  reaches a threshold fraction of the clean positive peak;
* component faults expressed as transformations of a behavioral opamp model
  (output-stage degradation, parametric temperature excursion, open/short).

Block-level injection walks the reference chain once and stamps each
block's anomalies on its output before the next block runs, so every
anomaly propagates through the blocks downstream of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import ConfigurationError, InjectionError, InputError
from .waveforms import (OpampModel, VrefConfig, Waveform, _check_finite,
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
    :param delta_frac: added value as a fraction of max(signal), finite and > 0
    """

    threshold_frac: float = 0.9
    delta_frac: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.threshold_frac <= 1.0:
            raise ConfigurationError("threshold_frac must be in (0, 1]",
                                     config_key="threshold_frac")
        if not 0.0 < self.delta_frac < math.inf:   # NaN fails too
            raise ConfigurationError("delta_frac must be finite and > 0",
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

    positions: np.ndarray          # strictly increasing sample indices
    original: np.ndarray           # pre-injection values at those positions
    injected: np.ndarray           # post-injection values at those positions

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


def _stamp(row: np.ndarray, positions: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Write ``values`` at ``positions`` of ``row``; a finite row stays finite."""
    if not (np.isfinite(values.min()) and np.isfinite(values.max())):
        raise InjectionError("injected values overflow float64")
    row[positions] = values
    return positions


def _stamp_random(row: np.ndarray, rate_pct: float, amp_low: float,
                  amp_high: float, seed: int | None) -> np.ndarray:
    """``inject_point_random``'s anomalies, stamped on the finite ``row`` in place.

    :returns: the stamped positions
    """
    n = len(row)
    count = _count_half_up(rate_pct, n)
    if count >= n:
        raise InjectionError(f"rate {rate_pct}% asks for {count} anomalies "
                             f"in a {n}-sample signal")
    peak = float(np.max(np.abs(row)))
    if peak <= 0.0:
        raise InjectionError("cannot scale anomalies on an all-zero signal")
    rng = np.random.default_rng(seed)
    positions = np.sort(rng.choice(n, size=count, replace=False))
    mult = rng.uniform(amp_low, amp_high, count)
    with np.errstate(over="ignore"):
        values = np.where(row[positions] < 0.0, -1.0, 1.0) * mult * peak
    return _stamp(row, positions, values)


def _stamp_periodic(row: np.ndarray, threshold_frac: float,
                    delta_frac: float) -> np.ndarray:
    """``inject_point_periodic``'s anomalies, stamped on the finite ``row`` in place.

    :returns: the stamped positions
    """
    peak = float(np.max(row))
    if peak <= 0.0:
        raise InjectionError("periodic injection needs a positive signal peak")
    positions = np.flatnonzero(row >= threshold_frac * peak)
    if positions.size == 0:
        raise InjectionError("no sample reaches the injection threshold")
    with np.errstate(over="ignore"):
        values = row[positions] + delta_frac * peak
    return _stamp(row, positions, values)


def inject_point_random(w: Waveform, rate_pct: float, amp_low: float,
                        amp_high: float, seed: int | None = 0
                        ) -> tuple[Waveform, InjectionRecord]:
    """Stamp seeded random point anomalies into a copy of ``w``.

    The number of anomalies is round-half-up(rate_pct/100 * N) with a floor of
    one; positions are drawn uniformly without replacement; each injected value
    is sign(w[i]) * u * max(|w|) with u ~ U[amp_low, amp_high].
    """
    PointRandom(rate_pct, amp_low, amp_high)  # validates ranges
    out = w.samples.copy()
    positions = _stamp_random(out, rate_pct, amp_low, amp_high, seed)
    return w.copy_with(out), InjectionRecord(positions, w.samples[positions], out[positions])


def inject_point_periodic(w: Waveform, threshold_frac: float,
                          delta_frac: float) -> tuple[Waveform, InjectionRecord]:
    """Raise every sample at or above threshold_frac * max(w) by delta_frac * max(w).

    Deterministic: no RNG is consumed.  ``delta_frac`` = 0 is allowed here (an
    identity pass that still records the would-be positions).
    """
    if not 0.0 < threshold_frac <= 1.0:
        raise InjectionError("threshold_frac must be in (0, 1]")
    if not 0.0 <= delta_frac < math.inf:
        raise InjectionError("delta_frac must be finite and >= 0")
    out = w.samples.copy()
    positions = _stamp_periodic(out, threshold_frac, delta_frac)
    return w.copy_with(out), InjectionRecord(positions, w.samples[positions], out[positions])


def _walk_chain(cfg: VrefConfig, inp: np.ndarray, sample_period: float,
                specs: list[list[AnomalySpec]]) -> dict[str, np.ndarray]:
    """One walk down the chain for a chunk of instances: input -> PLL -> trig.

    ``inp`` holds one instance's input samples per row; ``specs`` holds one
    list of specs per row.  The specs located at a block are stamped, in
    order and in place, on that block's output signal before the next block
    runs, so thresholds and amplitudes are relative to the signal as it
    stands at that block.  Every signal must be finite, as every Waveform
    must be.  The output stage is left to the caller (``vref_output_block``
    or a batched low-pass over many chunks).

    :returns: signal name -> (rows, n_samples) array, for the four taps
        before the output stage
    """
    def stamp(x: np.ndarray, loc: InjectionLocation) -> None:
        for row, row_specs in zip(x, specs):
            for sp in row_specs:
                if sp.location is not loc:
                    continue
                kind = sp.kind
                if isinstance(kind, PointRandom):
                    _stamp_random(row, kind.rate_pct, kind.amp_low,
                                  kind.amp_high, sp.seed)
                elif isinstance(kind, PointPeriodic):
                    _stamp_periodic(row, kind.threshold_frac, kind.delta_frac)
                else:
                    raise InputError(f"unknown anomaly kind {type(kind).__name__}")

    _check_finite(inp)
    stamp(inp, InjectionLocation.INPUT_A)
    f_trace, intensity = _pll_rows(inp, sample_period, cfg)
    _check_finite(f_trace)
    _check_finite(intensity)
    stamp(intensity, InjectionLocation.PLL_B)
    trig = _trig_rows(intensity, cfg)
    _check_finite(trig)
    stamp(trig, InjectionLocation.TRIG_C)
    return {"input": inp, "pll_frequency": f_trace, "pll_intensity": intensity,
            "trig": trig}


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
            if not math.isfinite(self.temperature):
                raise ConfigurationError(
                    f"Parametric temperature must be finite, got {self.temperature!r}",
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
