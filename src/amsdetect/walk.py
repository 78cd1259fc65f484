"""The population walk: the raw features of several configs' instances.

Simulation is batched by population: the instances of one class whose
bytes the same inputs fix (circuit, seed, stimulus, resolved injection
legs or fault; ``_sim_key``) are simulated once, for the largest n among
the configs that share them, and each config featurizes its own with its
own windows, features and signals.

Reference-chain populations of one class of one chain (seed, sample
count, duration, ``VrefConfig``) differ only in their legs, and are walked
as one prefix tree (``_Node``), chunk by chunk of ``_CHUNK`` instances:
the input rows are drawn once, each distinct set of legs at a block stamps
once (on a copy only where a sibling still reads the unstamped rows), each
PLL and trig trace runs once per node, and each tap is featurized once, at
the node where it becomes final, for every consumer below.  The leaves'
output drive fills instance-major low-pass lanes (``_Lane``) across trees;
opamp chains step on lanes of whole populations (``_lanes``).  No lane is
wider than one of the configs would get alone, and each instance gets the
bytes it would get simulated alone.  The walk stops at its first error,
which does not say which config caused it; a walk of one config alone
raises that config's own error.

Seeds are hashed per population (per tree on the reference chain), not
per instance: each instance's streams are ``np.random.default_rng(s)``
with ``s`` the ``SeedSequence([seed, label, idx, leg])`` hash, leg 0 the
input noise and leg 1 + j the j-th injection leg, and ``_stream_states``
runs both hashes over a whole range of instance indices at once, giving
each stream's PCG64 state; one reused Generator then takes each state in
turn, with the same draws.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from itertools import accumulate

import numpy as np

from .config import ExperimentConfig, _analysis, _stimulus
from .features import _windowed_rows
from .inject import apply_component_fault
from .waveforms import (_BLOCKS, OpampModel, _chain_clock, _chain_step, _check_finite,
                        _input_rows, _lowpass_steps, _output_drive, _simulate_columns,
                        _stamp_rows, build_kstage, default_vref_component_model)

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_M32 = 0xFFFFFFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hasher(h: int, mult: int):
    """SeedSequence's hashmix over uint32 arrays, its hash constant starting
    at ``h`` and multiplied by ``mult`` at each call.  ``hashmix(v, calls)``
    makes ``calls`` consecutive calls at once: slice i of ``v``'s leading
    axis (of length ``calls``, or 1 to hash one value ``calls`` times) is
    hashed with the i-th constant."""
    def hashmix(v: np.ndarray, calls: int) -> np.ndarray:
        nonlocal h
        consts = []
        for _ in range(calls):
            consts.append(h)
            h = h * mult & _M32
            consts.append(h)
        consts = np.array(consts, dtype=np.uint32).reshape((calls, 2) + (1,) * (v.ndim - 1))
        v = v ^ consts[:, 0]
        v *= consts[:, 1]
        return v ^ v >> 16
    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    v = x * _MIX_L - y * _MIX_R
    return v ^ v >> 16


def _seed_words(words: list[np.ndarray], n_words: int) -> list[np.ndarray]:
    """``SeedSequence(entropy).generate_state(n_words, np.uint32)`` of many
    entropies at once: ``words`` holds the little-endian 32-bit entropy
    words, one uint32 array (one element per entropy) per word.

    SeedSequence's mixing runs as uint32 array operations, the calls that
    hash one value or one word of the pool several times in a row as one.
    Its hash constants do not depend on the data, so they stay Python ints
    (masked to 32 bits) and the arrays wrap silently.  Missing pool words
    hash as 0, as SeedSequence hashes them.
    """
    entropy = np.stack(words + [np.zeros_like(words[0])] * (_POOL - len(words)))
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = hashmix(entropy[:_POOL], _POOL)
    for src in range(_POOL):
        dst = [i for i in range(_POOL) if i != src]
        pool[dst] = _mix(pool[dst], hashmix(pool[src:src + 1], _POOL - 1))
    for w in entropy[_POOL:]:
        pool = _mix(pool, hashmix(w[None], _POOL))
    # generate_state cycles through the pool
    return list(_hasher(_INIT_B, _MULT_B)(pool[np.arange(n_words) % _POOL], n_words))


def _child_seed_words(*parts) -> list[np.ndarray]:
    """Stable composite seeds, one per instance, as their (low, high) 32-bit
    words (uint32 arrays).

    The parts are ints >= 0 of any size and integer arrays of indices (each
    < 2**32), at least one; the arrays broadcast together.  For each
    element the words are those of ``int(SeedSequence([..., i, ...])
    .generate_state(1, np.uint64)[0])``, all elements hashed at once.
    """
    shape = np.broadcast_shapes(*(p.shape for p in parts if isinstance(p, np.ndarray)))
    words = []      # the entropy words, little-endian 32-bit words per part
    for p in parts:
        if isinstance(p, np.ndarray):
            words.append(np.broadcast_to(p, shape).astype(np.uint32))
            continue
        while True:
            words.append(np.full(shape, p & _M32, dtype=np.uint32))
            p >>= 32
            if not p:
                break
    return _seed_words(words, 2)


# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M128 = (1 << 128) - 1


class _Streams(Sequence):
    """The PCG64 bit-generator states of many streams, each built when read.

    A stream is held as its four ``SeedSequence(s).generate_state(4,
    np.uint64)`` words, 32 bytes, in a (4, streams) uint64 array; indexing
    builds that stream's state dict, and slicing gives the streams of the
    slice.  ``default_rng(s)`` seeds PCG64 with those words v0..v3: with
    ``seed = v0 << 64 | v1`` and ``inc = (v2 << 64 | v3) << 1 | 1`` (mod
    2**128), the state is ``((inc + seed) * MULT + inc) mod 2**128``.
    """

    def __init__(self, words: np.ndarray):
        self._words = words

    def __len__(self) -> int:
        return self._words.shape[1]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return _Streams(self._words[:, i])
        s_hi, s_lo, i_hi, i_lo = self._words[:, i].tolist()
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _M128
        return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                "has_uint32": 0, "uinteger": 0}


def _stream_states(*parts) -> _Streams:
    """The bit-generator state of ``np.random.default_rng(s)`` for each child
    seed s of ``_child_seed_words(*parts)``, without building a Generator.

    The second hash, ``SeedSequence(s).generate_state(4, np.uint64)``, runs
    over all seeds at once, a child seed's two 32-bit words being its
    entropy; only PCG64's 128-bit seeding step is per stream, when its
    state is read (``_Streams``).  Setting a state on one reused Generator
    then draws what ``default_rng(s)`` would.  The states come in C order
    over the parts' broadcast shape.
    """
    v = [a.astype(np.uint64) for a in _seed_words(_child_seed_words(*parts), 8)]
    return _Streams(np.stack([(v[2 * k] | v[2 * k + 1] << 32).ravel() for k in range(4)]))


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


@dataclass
class _Node:
    """A node of a prefix tree of reference-chain populations of one class:
    the populations below it (``pops``, the most instances one needs ``n``)
    share their rows up to its block, ``_BLOCKS[depth - 1]``, whose legs it
    stamps (``legs``: (leg index, kind) pairs).  A leaf is one population."""

    legs: tuple = ()
    pops: list[_Population] = field(default_factory=list)
    children: dict[str, "_Node"] = field(default_factory=dict)
    n: int = 0


class _Lane:
    """A low-pass lane of reference chains: the output stage's time-major
    drive, one instance per column, ``width`` columns.  It is filled run by
    run and stepped, then featurized, whenever it is full and at ``flush``."""

    def __init__(self, walk: "_Walk", n_samples: int, width: int):
        self.walk, self.cols, self.runs = walk, 0, []
        self.drive, self.alpha = np.empty((n_samples, width)), np.zeros(width)

    def add(self, pop: _Population, first: int, trig: np.ndarray) -> None:
        """Take the drive of the instances ``first``.. (rows of ``trig``) that
        a consumer of ``pop`` observes at the output."""
        count = min(len(trig), pop.n_output - first)
        while count > 0:
            take = min(count, self.drive.shape[1] - self.cols)
            span = slice(self.cols, self.cols + take)
            _output_drive(trig[:take].T, pop.config.vref, out=self.drive[:, span])
            self.alpha[span] = pop.config.sample_period / pop.config.vref.output_tau
            self.runs.append((pop, first, take, self.cols))
            self.cols += take
            trig, first, count = trig[take:], first + take, count - take
            if self.cols == self.drive.shape[1]:
                self.flush()

    def flush(self) -> None:
        if self.cols:
            _lowpass_steps(self.drive[:, :self.cols], self.alpha[:self.cols])
            self.walk._featurize_output(self.drive, self.runs)
            self.cols, self.runs = 0, []


def _queue(todo: list, node: _Node, level: int, x: np.ndarray, first: int) -> list:
    """Push the children of ``node`` that instance ``first`` reaches, each
    with ``x``, its parent's rows, and whether to stamp a copy of them.  The
    child without legs is popped first; every child with legs but the last
    popped stamps a copy, since a sibling still reads ``x``."""
    kids = sorted((k for k in node.children.values() if k.n > first), key=lambda k: not k.legs)
    todo.extend((level, kid, x, i > 0 and bool(kid.legs)) for i, kid in enumerate(kids))
    return todo


class _Walk:
    """The raw features of several configs, each population simulated once.

    Populations that share lanes (``_sim_key``) are walked together, on a
    lane buffer at most 2 x the largest ``n_samples_per_class`` among their
    consumers wide.  Reference-chain populations are walked tree by tree,
    one chunk of instances at a time, and a lane takes each chunk's output
    drive as it comes, so one lane may hold several trees' instances and
    one tree's instances several lanes; no waveform outlives its chunk or
    its lane.  ``run`` stops at the first error, which may belong to any
    consumer: only a config walked alone gets its own error.
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

    def _featurize(self, pops: list[_Population], first: int, taps: dict) -> None:
        """Each consumer of ``pops`` (populations of one class) gets its
        features of instances ``first``.. from the taps it observes (name ->
        C-contiguous (instances, samples) rows).

        Each distinct (tap, windows, features) is featurized once, for the
        most rows a consumer of it needs, and each consumer copies its rows
        out: rows are featurized independently, so the bytes are the same.
        """
        wanted = []             # (consumer, its row, signal index, key, row count)
        most: dict[tuple, int] = {}
        for pop in pops:
            for e in pop.consumers:
                cfg = self.configs[e]
                n = cfg.n_samples_per_class
                if first >= n:
                    continue
                for j, s in enumerate(cfg.observed_signals):
                    if s in taps:
                        key = (s, cfg.window_k or 1, cfg.features)
                        count = min(n - first, len(taps[s]))
                        wanted.append((e, pop.label * n + first, j, key, count))
                        most[key] = max(most.get(key, 0), count)
        feats = {key: _windowed_rows(taps[key[0]][:count], *key[1:])
                 for key, count in most.items()}
        for e, row, j, key, count in wanted:
            self.feats[e][row:row + count, :, j] = feats[key][:count]

    def _featurize_output(self, lane: np.ndarray, runs: list, streams=None) -> None:
        """Each run's output features from its columns of a stepped lane,
        chunk by chunk.  With ``streams`` (one parked random state per
        column), each row first gets its instance's measurement noise."""
        rng = np.random.default_rng(0)
        for pop, first, count, col in runs:
            for c in _chunks(count):
                span = slice(col + c.start, col + c.stop)
                rows = np.ascontiguousarray(lane[:, span].T)
                if streams is not None:
                    for row, stream in zip(rows, streams[span]):
                        rng.bit_generator.state = stream
                        row += rng.normal(0.0, pop.config.measurement_noise, row.size)
                _check_finite(rows, "output",
                              "vref_params" if streams is None else "measurement_noise")
                self._featurize([pop], first + c.start, {"output": rows})

    def _walk_blocks(self, pops: list[_Population], width: int) -> None:
        """Walk reference chains as prefix trees, one tree at a time; the
        leaves fill low-pass lanes with the output stage's drive."""
        trees: dict[str, _Node] = {}
        for pop in pops:
            cfg = pop.config
            node = trees.setdefault(repr((cfg.seed, pop.label, cfg.duration, cfg.vref)), _Node())
            legs = list(enumerate(cfg.injections if pop.label else ()))
            for block in _BLOCKS:
                node.pops.append(pop)
                node.n = max(node.n, pop.n)
                at = tuple((j, kind) for j, (b, kind) in legs if b == block)
                node = node.children.setdefault(repr(at), _Node(legs=at))
            node.pops.append(pop)
            node.n = pop.n
        lane = _Lane(self, pops[0].config.n_samples, width)
        for root in trees.values():
            self._walk_tree(root, lane)
        lane.flush()

    def _walk_tree(self, root: _Node, lane: "_Lane") -> None:
        """Walk one tree's instances, chunk by chunk, depth first: at each
        node the legs stamp the parent's rows, the chain runs on past the
        node's block (``_chain_step``), and every consumer below featurizes
        the taps final there; a leaf's trig rows go on to ``lane``.  A
        node's rows live only while a child still has to read them."""
        cfg, label = root.pops[0].config, root.pops[0].label
        dt, total = cfg.sample_period, root.n
        legs = max(len(p.config.injections) for p in root.pops) if label else 0
        states = _stream_states(cfg.seed, label, np.arange(total), np.arange(1 + legs)[:, None])
        clock = _chain_clock(cfg.n_samples, dt, cfg.vref)
        for c in _chunks(total):
            todo = _queue([], root, 0, _input_rows(cfg.vref, clock[0], states[c]), c.start)
            while todo:
                level, node, x, shared = todo.pop()
                rows = x[:node.n - c.start].copy() if shared else x[:node.n - c.start]
                _stamp_rows(rows, [(kind, states[(1 + j) * total:][c]) for j, kind in node.legs])
                taps, nxt = _chain_step(cfg.vref, _BLOCKS[level], rows, dt, clock)
                self._featurize(node.pops, c.start, taps)
                if nxt is None:
                    lane.add(node.pops[0], c.start, rows)
                else:
                    _queue(todo, node, level + 1, nxt, c.start)
                del rows, taps, nxt     # free this node's signals before the next node's exist

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
        rng = np.random.default_rng(0)
        for runs in _lanes(pops, width):
            for pop, first, count, col in runs:
                fault = pop.config.fault if pop.label else None
                ids = np.arange(first, first + count)
                for j, state in enumerate(_stream_states(pop.config.seed, pop.label, ids, 0), col):
                    rng.bit_generator.state = state
                    chains[j] = _instance_chain(pop.config, rng, fault)
                    streams[j] = rng.bit_generator.state
            cols = sum(count for _, _, count, _ in runs)
            self._featurize_output(_simulate_columns(chains[:cols], mode, stimulus),
                                   runs, streams[:cols])
