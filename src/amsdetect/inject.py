"""Anomaly and fault injection.

Two families are supported:

* point anomalies stamped into a sampled signal, either at seeded random
  positions (amplitude expressed as a multiple of the clean signal's maximum
  absolute value, sign-preserving) or periodically at every sample whose value
  reaches a threshold fraction of the clean positive peak;
* component faults, each a name in ``FAULT_NAMES`` that
  ``apply_component_fault`` turns into a transformed behavioral opamp model
  (output-stage degradation, parametric temperature excursion, open/short).

An injection kind, ``PointRandom`` or ``PointPeriodic``, validates its
parameters once and stamps a row in place.  ``inject_points`` applies a kind
to a copy of one waveform and records what it changed; the reference chain's
walk (``walk._Walk``) stamps each block's legs on its output
before the next block runs, so every anomaly propagates through the blocks
downstream of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, InjectionError, InputError
from .waveforms import OpampModel, Waveform
# Unused here; perfbench/test_perfbench.py checks its tracer at this binding.
from .waveforms import vref_output_block  # noqa: F401

__all__ = [
    "PointRandom",
    "PointPeriodic",
    "InjectionRecord",
    "FAULT_NAMES",
    "inject_points",
    "apply_component_fault",
    "record_to_csv",
]


@dataclass(frozen=True)
class PointRandom:
    """Randomly placed point anomalies.

    The number of anomalies is round-half-up(rate_pct/100 * N) with a floor
    of one; positions are drawn uniformly without replacement; each stamped
    value is sign(signal[i]) * u * max(|signal|) with u ~ U[amp_low, amp_high].

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
        if not 0.0 < self.amp_low < math.inf:   # NaN fails too
            raise ConfigurationError(f"amp_low must be finite and > 0, got {self.amp_low!r}",
                                     config_key="amp_low")
        if not self.amp_low <= self.amp_high < math.inf:
            raise ConfigurationError(f"amp_high must be finite and >= amp_low "
                                     f"({self.amp_low!r}), got {self.amp_high!r}",
                                     config_key="amp_high")

    def stamp(self, row: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Stamp these anomalies on the finite ``row`` in place, drawing
        positions and amplitudes from ``rng``; returns the positions."""
        n = len(row)
        count = _count_half_up(self.rate_pct, n)
        if count >= n:
            raise InjectionError(f"rate {self.rate_pct}% asks for {count} anomalies "
                                 f"in a {n}-sample signal")
        peak = float(np.max(np.abs(row)))
        if peak <= 0.0:
            raise InjectionError("cannot scale anomalies on an all-zero signal")
        positions = np.sort(rng.choice(n, size=count, replace=False))
        mult = rng.uniform(self.amp_low, self.amp_high, count)
        with np.errstate(over="ignore"):
            values = np.where(row[positions] < 0.0, -1.0, 1.0) * mult * peak
        return _stamp(row, positions, values)


@dataclass(frozen=True)
class PointPeriodic:
    """Deterministic anomalies: every sample at or above threshold_frac *
    max(signal) is raised by delta_frac * max(signal).

    :param threshold_frac: fraction of max(signal) that triggers injection,
        in (0, 1]
    :param delta_frac: added value as a fraction of max(signal), finite and
        >= 0; 0 is an identity pass that still records the would-be positions
    """

    threshold_frac: float = 0.9
    delta_frac: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.threshold_frac <= 1.0:
            raise ConfigurationError("threshold_frac must be in (0, 1]",
                                     config_key="threshold_frac")
        if not 0.0 <= self.delta_frac < math.inf:   # NaN fails too
            raise ConfigurationError("delta_frac must be finite and >= 0",
                                     config_key="delta_frac")

    def stamp(self, row: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Stamp these anomalies on the finite ``row`` in place; returns the
        positions.  Nothing is drawn from ``rng``."""
        peak = float(np.max(row))
        if peak <= 0.0:
            raise InjectionError("periodic injection needs a positive signal peak")
        positions = np.flatnonzero(row >= self.threshold_frac * peak)
        if positions.size == 0:
            raise InjectionError("no sample reaches the injection threshold")
        with np.errstate(over="ignore"):
            values = row[positions] + self.delta_frac * peak
        return _stamp(row, positions, values)


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


def inject_points(w: Waveform, kind: PointRandom | PointPeriodic,
                  seed: int | None) -> tuple[Waveform, InjectionRecord]:
    """Stamp ``kind``'s anomalies into a copy of ``w``, drawing from ``seed``.

    :returns: (the injected waveform, the record of what it changed)
    """
    out = w.samples.copy()
    positions = kind.stamp(out, np.random.default_rng(seed))
    return (Waveform(out, w.sample_period),
            InjectionRecord(positions, w.samples[positions], out[positions]))


FAULT_NAMES = ("OmBoth", "OmPfet", "OmNfet", "Parametric", "Open", "Short")

TEMP_RANGE = (-40.0, 125.0)  # qualified operating range, degrees Celsius


def _check_temperature(temperature: float | None) -> None:
    """A Parametric fault's temperature, config key ``fault_temperature``:
    finite and outside ``TEMP_RANGE``."""
    if temperature is None:
        raise ConfigurationError("Parametric fault needs a temperature",
                                 config_key="fault_temperature")
    if not math.isfinite(temperature):
        raise ConfigurationError(
            f"Parametric temperature must be finite, got {temperature!r}",
            config_key="fault_temperature")
    if TEMP_RANGE[0] <= temperature <= TEMP_RANGE[1]:
        raise ConfigurationError(
            f"Parametric temperature {temperature} C is inside the "
            f"qualified range [{TEMP_RANGE[0]}, {TEMP_RANGE[1]}] C",
            config_key="fault_temperature")


def apply_component_fault(model: OpampModel, name: str,
                          temperature: float | None) -> OpampModel:
    """Return ``model`` transformed by the component fault ``name``.

    Output-stage degradations (OmPfet, OmNfet, OmBoth) scale the open-loop
    gain and shift the input offset by a fraction of the rail span;
    Parametric evaluates the model at ``temperature``, which must be finite
    and outside ``TEMP_RANGE`` (every other fault ignores it); Open re-wires
    the transient response into a slow collapse onto the high rail; Short
    collapses the gain.
    """
    span = model.rail_span
    if name == "OmPfet":
        return replace(model, open_loop_gain=model.open_loop_gain * 0.4,
                       offset=model.offset + 0.05 * span)
    if name == "OmNfet":
        return replace(model, open_loop_gain=model.open_loop_gain * 0.6,
                       offset=model.offset - 0.05 * span)
    if name == "OmBoth":
        return replace(model, open_loop_gain=model.open_loop_gain * 0.4 * 0.6,
                       offset=model.offset + 0.05 * span - 0.05 * span)
    if name == "Parametric":
        _check_temperature(temperature)
        return replace(model, eval_temp=temperature)
    if name == "Open":
        return replace(model, open_collapse=True)
    if name == "Short":
        return replace(model, open_loop_gain=model.open_loop_gain * 0.25)
    raise ConfigurationError(f"unknown fault {name!r}", config_key="experiment")


def record_to_csv(record: InjectionRecord, path) -> None:
    """Write the audit CSV: ``index,original,injected``."""
    rows = zip(record.positions.tolist(), record.original.tolist(),
               record.injected.tolist())
    cells = tuple(c for row in rows for c in row)
    with open(path, "w") as fh:
        fh.write("index,original,injected\n"
                 + ("%s,%.12e,%.12e\n" * len(record.positions)) % cells)
