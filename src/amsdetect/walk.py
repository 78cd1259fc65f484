"""The population walk: the raw features of several configs' instances.

Simulation is batched by population: the instances of one class whose
bytes the same inputs fix (circuit, seed, stimulus, resolved injection
legs or fault; ``_sim_key``) are simulated once, for the largest n among
the configs that share them, and each config featurizes its own with its
own windows, features and signals.  The time recursions step many
instances at once on one time-major lane buffer, no wider than one of
those configs would get alone, and everything else runs in chunks of
``_CHUNK`` instances; each instance still gets the bytes it would get
simulated alone.  The walk stops at its first error, which does not say
which config caused it; a walk of one config alone raises that config's
own error.

Seeds are hashed per population, not per instance: each instance's
streams are seeded by ``SeedSequence([seed, label, idx, leg])``, and
``_child_seeds`` runs that hash over a whole range of instance indices at
once, with the same results.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import accumulate

import numpy as np

from .config import ExperimentConfig, _analysis, _stimulus
from .features import _windowed_rows
from .inject import apply_component_fault
from .waveforms import (OpampModel, _chain_clock, _check_finite, _input_rows, _lowpass_steps,
                        _output_drive, _simulate_columns, _walk_chain, build_kstage,
                        default_vref_component_model)

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_M32 = 0xFFFFFFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hasher(h: int, mult: int):
    """SeedSequence's hashmix over uint32 arrays, its hash constant starting
    at ``h`` and multiplied by ``mult`` at each call."""
    def hashmix(v: np.ndarray) -> np.ndarray:
        nonlocal h
        v = v ^ h
        h = h * mult & _M32
        v *= h
        return v ^ v >> 16
    return hashmix


def _child_seeds(*parts) -> list[int]:
    """Stable composite seeds, one per instance index.

    Exactly one part is a 1-D integer array of indices (each < 2**32); the
    others are ints >= 0 of any size.  Returns, for each index i, what
    ``int(SeedSequence([..., i, ...]).generate_state(1, np.uint64)[0])``
    gives: SeedSequence's mixing run as uint32 array operations over all
    indices at once.  The hash constants do not depend on the data, so they
    stay Python ints (masked to 32 bits) and the arrays wrap silently.
    """
    ids = next(p for p in parts if isinstance(p, np.ndarray))
    words = []      # the entropy words, little-endian 32-bit words per part
    for p in parts:
        if isinstance(p, np.ndarray):
            words.append(p.astype(np.uint32))
            continue
        while True:
            words.append(np.full(len(ids), p & _M32, dtype=np.uint32))
            p >>= 32
            if not p:
                break
    words += [np.zeros(len(ids), dtype=np.uint32)] * (_POOL - len(words))
    hashmix = _hasher(_INIT_A, _MULT_A)

    def mix(x, y):
        v = x * _MIX_L - y * _MIX_R
        return v ^ v >> 16

    pool = [hashmix(w) for w in words[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(w))
    out = _hasher(_INIT_B, _MULT_B)     # generate_state: two uint32 words, low first
    low, high = (out(v).astype(np.uint64) for v in pool[:2])
    return (low | high << 32).tolist()


def _jittered(base: OpampModel, rng: np.random.Generator,
              config: ExperimentConfig) -> OpampModel:
    gain = base.open_loop_gain * max(0.05, 1.0 + rng.normal(0.0, config.jitter_gain))
    offset = base.offset + rng.normal(0.0, config.jitter_offset)
    return replace(base, open_loop_gain=gain, offset=offset)


_KSTAGE_BASE = OpampModel(open_loop_gain=30.0, rail_low=-2.5, rail_high=2.5,
                          offset=0.01, slew_rate=5.0e7)


# Instances per chunk of per-instance work (noise draws, injection, the PLL
# and trig blocks, measurement noise, features), so each temporary is a few
# (_CHUNK, n_samples) arrays.
_CHUNK = 8


def _chunks(total: int) -> list[slice]:
    return [slice(i, min(i + _CHUNK, total)) for i in range(0, total, _CHUNK)]


def _sim_key(config: ExperimentConfig, label: int) -> tuple[str, str]:
    """Name what fixes the bytes of a config's instances of one class.

    :returns: (lanes, population).  Instances whose time recursions can
        step together share ``lanes``: the reference chain's low-pass needs
        one sample count, an opamp chain one stimulus or sweep and one stage
        count.  Configs whose instances of class ``label`` are byte-identical
        share ``population``; it leaves out what only featurizing, fitting
        and scoring read, and names injection legs and faults as resolved,
        not by experiment.  Values enter by ``repr``, so 0.0 and -0.0 (or 1
        and 1.0) never share.
    """
    if config.circuit == "vref_blocks":
        lanes: tuple = ("vref_blocks", config.n_samples)
        rest: tuple = (config.duration, config.vref, config.injections if label else ())
    else:
        kstage = config.circuit == "kstage"
        if _analysis(config) == "transient":
            stimulus = ("transient", config.n_samples, config.duration, config.stim_dc,
                        config.stim_amplitude, config.stim_frequency)
        else:
            stimulus = (config.analysis, config.sweep)
        lanes = (stimulus, config.kstage_k if kstage else 1)
        faulted = (config.fault, config.anomalous_stages if kstage else None) if label else None
        rest = (config.circuit, config.jitter_gain, config.jitter_offset,
                config.measurement_noise, config.kstage_gains if kstage else None, faulted)
    return repr(lanes), repr((lanes, config.seed, label, rest))


def _timebase(config: ExperimentConfig) -> tuple[int, float]:
    """(samples per window, sample period) of a config's simulated signals;
    a DC sweep's points are one unit step apart."""
    k = config.window_k or 1
    if _analysis(config) != "transient":
        return config.sweep_points // k, 1.0
    return config.n_samples // k, config.sample_period


@dataclass
class _Population:
    """The instances of one class that configs with one ``_sim_key`` share,
    simulated once from the first consumer's config: the most instances a
    consumer needs (``n``), the first ``n_output`` -- the most a consumer
    observing the output needs -- through the output stage.  Instance
    ``idx`` is row ``label * m + idx`` of the features of each consumer of
    m > idx instances per class.
    """

    config: ExperimentConfig
    label: int
    consumers: list[int] = field(default_factory=list)
    n: int = 0
    n_output: int = 0


def _instance_chain(config: ExperimentConfig, rng: np.random.Generator,
                    fault: tuple[str, float | None] | None) -> list[OpampModel]:
    """One instance's per-stage opamp models; draws its jitter from ``rng``.

    An anomalous instance (``fault`` is ``config.fault``) of a k-stage
    chain also draws its faulted stage, unless ``anomalous_stages`` fixes it.
    """
    if config.circuit != "kstage":
        base = (default_vref_component_model() if config.circuit == "vref_components"
                else OpampModel())
        model = _jittered(base, rng, config)
        return [model if fault is None else apply_component_fault(model, *fault)]
    base = _jittered(_KSTAGE_BASE, rng, config)
    gains = config.kstage_gains or (2.0,) * config.kstage_k
    if fault is None:
        return build_kstage(base, gains)
    stages = (config.anomalous_stages if config.anomalous_stages is not None
              else (int(rng.integers(config.kstage_k)),))
    return build_kstage(base, gains, stages, apply_component_fault(base, *fault))


def _lanes(pops: list[_Population], width: int):
    """The lanes of the populations' first ``n_output`` instances, laid end
    to end, ``width`` columns a lane: yields each lane's (population, first
    instance, count, column) runs, in column order."""
    starts = list(accumulate((p.n_output for p in pops), initial=0))
    for lo in range(0, starts[-1], width or 1):     # width is 0 with no instances
        runs = []
        for pop, start in zip(pops, starts):
            first = max(lo - start, 0)
            count = min(lo + width - start, pop.n_output) - first
            if count > 0:
                runs.append((pop, first, count, start + first - lo))
        yield runs


class _Walk:
    """The raw features of several configs, each population simulated once.

    Populations that share lanes (``_sim_key``) are walked together, on a
    lane buffer at most 2 x the largest ``n_samples_per_class`` among their
    consumers wide; no waveform outlives its chunk or its lane.  ``run``
    stops at the first error, which may belong to any consumer: only a
    config walked alone gets its own error.
    """

    def __init__(self, configs: list[ExperimentConfig]):
        self.configs = configs
        self.feats = [np.empty((2 * c.n_samples_per_class, c.window_k or 1,
                                len(c.observed_signals), len(c.features))) for c in configs]
        self.lanes: dict[str, list[_Population]] = {}
        pops: dict[str, _Population] = {}
        for e, cfg in enumerate(configs):
            for label in (0, 1):
                lanes, key = _sim_key(cfg, label)
                if key not in pops:
                    pops[key] = _Population(cfg, label)
                    self.lanes.setdefault(lanes, []).append(pops[key])
                pop, n = pops[key], cfg.n_samples_per_class
                pop.consumers.append(e)
                pop.n = max(pop.n, n)
                if "output" in cfg.observed_signals:
                    pop.n_output = max(pop.n_output, n)

    def run(self) -> list[np.ndarray]:
        """Walk every lane; returns ``feats``, one array per config."""
        for pops in self.lanes.values():
            width = min(2 * max(p.n for p in pops), sum(p.n_output for p in pops))
            if pops[0].config.circuit == "vref_blocks":
                self._walk_blocks(pops, width)
            else:
                self._walk_opamps(pops, width)
        return self.feats

    def _featurize(self, pop: _Population, first: int, taps: dict) -> None:
        """Each consumer's features of instances ``first``.. from the taps
        it observes (name -> C-contiguous (instances, samples) rows)."""
        for e in pop.consumers:
            cfg = self.configs[e]
            n = cfg.n_samples_per_class
            if first >= n:
                continue
            row = pop.label * n + first
            for j, s in enumerate(cfg.observed_signals):
                if s in taps:
                    x = taps[s][:n - first]
                    self.feats[e][row:row + len(x), :, j] = _windowed_rows(
                        x, cfg.window_k or 1, cfg.features)

    def _featurize_output(self, lane: np.ndarray, runs: list, streams=None) -> None:
        """Each run's output features from its columns of a stepped lane,
        chunk by chunk.  With ``streams`` (one parked random state per
        column), each row first gets its instance's measurement noise."""
        rng = np.random.default_rng(0)
        for pop, first, count, col in runs:
            for c in _chunks(count):
                span = slice(col + c.start, col + c.stop)
                rows = np.ascontiguousarray(lane[:, span].T)
                if streams is None:
                    _check_finite(rows)
                else:
                    for row, stream in zip(rows, streams[span]):
                        rng.bit_generator.state = stream
                        row += rng.normal(0.0, pop.config.measurement_noise, row.size)
                        _check_finite(row)
                self._featurize(pop, first + c.start, {"output": rows})

    def _walk_blocks(self, pops: list[_Population], width: int) -> None:
        """Walk reference chains.  Instances observed at the output go
        through low-pass lanes, one alpha per column; the rest then walk
        without a lane."""
        drive, alpha = np.empty((pops[0].config.n_samples, width)), np.zeros(width)
        for runs in _lanes(pops, width):
            for pop, first, count, col in runs:
                self._walk_rows(pop, first, first + count, drive[:, col:col + count])
                alpha[col:col + count] = pop.config.sample_period / pop.config.vref.output_tau
            cols = sum(count for _, _, count, _ in runs)
            _lowpass_steps(drive[:, :cols], alpha[:cols])
            self._featurize_output(drive, runs)
        del drive   # free the lane before the rest walk
        for pop in pops:
            if pop.n > pop.n_output:
                self._walk_rows(pop, pop.n_output, pop.n, None)

    def _walk_rows(self, pop: _Population, start: int, stop: int,
                   drive: np.ndarray | None) -> None:
        """Walk instances start..stop of a block population down the chain,
        chunk by chunk: consumers featurize the four taps before the output
        stage, and ``drive`` (time-major) gets the output stage's drive."""
        cfg, dt = pop.config, pop.config.sample_period
        legs = cfg.injections if pop.label else ()
        ids = np.arange(start, stop)
        noise_seeds, *leg_seeds = (_child_seeds(cfg.seed, pop.label, ids, j)
                                   for j in range(1 + len(legs)))
        clock = _chain_clock(cfg.n_samples, dt, cfg.vref)
        for c in _chunks(stop - start):
            taps = _walk_chain(cfg.vref, _input_rows(cfg.vref, clock[0], noise_seeds[c]), dt,
                               legs, [s[c] for s in leg_seeds], clock)
            self._featurize(pop, start + c.start, taps)
            if drive is not None:
                _output_drive(taps["trig"].T, cfg.vref, out=drive[:, c])
            del taps   # free this chunk's signals before the next chunk's exist

    def _walk_opamps(self, pops: list[_Population], width: int) -> None:
        """Simulate opamp or k-stage chains in lanes of one stimulus, then
        add each instance's measurement noise and featurize, chunk by chunk.

        Each instance's random stream is parked (its bit-generator state,
        not a Generator of ~8 kB) between its model draws and its
        measurement noise, so its draws come in the order of simulating it
        alone: jitter, the faulted k-stage stage, then noise.
        """
        cfg = pops[0].config
        mode = _analysis(cfg)
        stimulus = _stimulus(cfg)
        chains, streams = [None] * width, [None] * width
        for runs in _lanes(pops, width):
            for pop, first, count, col in runs:
                fault = pop.config.fault if pop.label else None
                ids = np.arange(first, first + count)
                for j, seed in enumerate(_child_seeds(pop.config.seed, pop.label, ids, 0), col):
                    rng = np.random.default_rng(seed)
                    chains[j] = _instance_chain(pop.config, rng, fault)
                    streams[j] = rng.bit_generator.state
            cols = sum(count for _, _, count, _ in runs)
            self._featurize_output(_simulate_columns(chains[:cols], mode, stimulus),
                                   runs, streams[:cols])
