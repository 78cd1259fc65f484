"""Outside-in tracer: spans around the calls into each amsdetect layer.

Nothing under ``src/`` knows about it.  ``install`` replaces every public
function of every layer module with a timing wrapper, at every binding of
that function in any loaded ``amsdetect`` module (modules import each other
by name, so patching only the defining module would miss calls such as
``bench`` -> ``simulate_vref`` or ``inject`` -> ``vref_output_block``).
``uninstall`` puts the originals back.

Spans stay in memory as ``(name, parent, start, end, note)`` tuples; a
layer's self time is its span's duration minus the durations of its direct
children, so the self times of one pass add up to its root span's duration
by construction.  ``nesting_errors`` checks what that sum relies on: every
span of a pass hangs off the pass's root, lies inside its parent's interval
and starts after its previous sibling ended.
Counts and ratios come from ``note``: a few numbers read from the returned
object (model histories, centroid pairs, detection results, row counts).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

# layer -> modules whose public functions belong to it
LAYERS = {
    "waveforms": ("amsdetect.waveforms",),
    "inject": ("amsdetect.inject",),
    "features": ("amsdetect.features",),
    "cluster": ("amsdetect.cluster.kmeans", "amsdetect.cluster.gmm",
                "amsdetect.cluster.birch", "amsdetect.cluster.spectral",
                "amsdetect.cluster.model"),
    "centroid": ("amsdetect.centroid",),
    "earlydetect": ("amsdetect.earlydetect",),
    "bench": ("amsdetect.bench",),
    "cli": ("amsdetect.cli",),
}
HARNESS = "harness"      # root span: the benchmark's own code in a pass
ERROR = "error"          # note of a span whose call raised
MARK = "__perfbench_original__"


def _default_max_iter(fn):
    return inspect.signature(fn).parameters["max_iter"].default


@functools.cache
def _fit_caps():
    """Iteration cap per algorithm, read off the fitting functions' defaults.

    Lloyd and EM stop at the cap without saying so; a history of exactly that
    length is a capped fit.  Birch's global step calls ``lloyd`` with its
    default cap.  Spectral keeps no history.
    """
    from amsdetect.cluster import fit_gmm, fit_kmeans, lloyd
    return {"kmeans": _default_max_iter(fit_kmeans), "birch": _default_max_iter(lloyd),
            "gmm": _default_max_iter(fit_gmm)}


def _fit_note(args, model):
    history = (model.loglik_history if model.algorithm == "gmm"
               else model.sse_history)
    cap = _fit_caps().get(model.algorithm)
    return {"rows": len(args[0]), "iters": len(history),
            "histories": int(cap is not None),
            "capped": int(cap is not None and len(history) >= cap)}


def _samples(wave):
    return {"samples": len(wave)}


# qualified name -> note(args, result); the note is what the span counts
NOTES = {
    "waveforms.vref_input_block": lambda a, r: _samples(r),
    "waveforms.vref_pll_block": lambda a, r: _samples(r[0]),
    "waveforms.vref_trig_block": lambda a, r: _samples(r),
    "waveforms.vref_output_block": lambda a, r: _samples(r),
    "waveforms.simulate_opamp": lambda a, r: _samples(r),
    "features.normalize_dataset": lambda a, r: {"rows": len(r[0])},
    "cluster.assign_many": lambda a, r: {"rows": len(r)},
    "cluster.fit_kmeans": _fit_note,
    "cluster.fit_gmm": _fit_note,
    "cluster.fit_birch": _fit_note,
    "cluster.fit_spectral": _fit_note,
    "centroid.refine_model": lambda a, r: {
        "fallbacks": sum(p.low_fallback + p.high_fallback for p in r.centroid_pairs),
        "sides": 2 * len(r.centroid_pairs)},
    "earlydetect.detect_windowed": lambda a, r: {
        "consumed": r.windows_consumed, "total": r.windows_total},
    "bench.evaluate": lambda a, r: {"combos": len(r.rows),
                                    "rows": len(r.rows) * r.n_observations},
}


def _cli_name(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return f"cli.{argv[0]}" if argv else "cli.main"


def layer_functions():
    """(``layer.function``, function) for every traced function."""
    out = []
    for layer, modules in LAYERS.items():
        for modname in modules:
            mod = importlib.import_module(modname)
            for name in ("main",) if layer == "cli" else mod.__all__:
                fn = getattr(mod, name)
                if inspect.isfunction(fn) and fn.__module__ == modname:
                    out.append((f"{layer}.{name}", fn))
    return out


def amsdetect_modules():
    return [m for k, m in list(sys.modules.items())
            if m is not None and (k == "amsdetect" or k.startswith("amsdetect."))]


def surviving_wrappers():
    """Bindings in amsdetect modules that still hold a tracer wrapper."""
    return [f"{m.__name__}.{k}" for m in amsdetect_modules()
            for k, v in vars(m).items() if hasattr(v, MARK)]


class Tracer:
    """Collects spans while ``active``; wrappers pass straight through otherwise."""

    def __init__(self):
        self.spans: list = []
        self.active = False
        self._stack: list[int] = []
        self._patched: list = []   # (module, attribute, original)

    # ------------------------------------------------------------ patching

    def _wrap(self, qualname, fn):
        note = NOTES.get(qualname)
        name_of = _cli_name if qualname == "cli.main" else None
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            name = name_of(args, kwargs) if name_of else qualname
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[sid] = (name, parent, t0, clock(), ERROR)
                stack.pop()
                raise
            t1 = clock()
            stack.pop()
            spans[sid] = (name, parent, t0, t1, note(args, result) if note else None)
            return result

        setattr(wrapper, MARK, fn)
        return wrapper

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {id(fn): (fn, self._wrap(qualname, fn))
                    for qualname, fn in layer_functions()}
        for mod in amsdetect_modules():
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, val))

    def uninstall(self):
        self.active = False
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        left = surviving_wrappers()
        if left:
            raise RuntimeError(f"tracer wrappers survived uninstall: {left}")

    # -------------------------------------------------------------- passes

    def run_pass(self, fn):
        """Run ``fn()`` under a root span; returns (result, first span index)."""
        first = len(self.spans)
        self.spans.append(None)
        self._stack.append(first)
        self.active = True
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            t1 = time.perf_counter()
            self.active = False
            self._stack.pop()
            self.spans[first] = (HARNESS, None, t0, t1, None)
        return result, first

    def write(self, path):
        """Write every span as one JSON array per line: name, parent, start, end, note."""
        with open(path, "w") as fh:
            for i, (name, parent, t0, t1, note) in enumerate(self.spans):
                fh.write(json.dumps([i, name, parent, t0, t1, note]) + "\n")


def self_times(spans, first=0, last=None):
    """Self time per span name over spans[first:last]: duration minus children."""
    last = len(spans) if last is None else last
    child = [0.0] * (last - first)
    for name, parent, t0, t1, _ in spans[first:last]:
        if parent is not None:
            child[parent - first] += t1 - t0
    out: dict[str, float] = {}
    for i, (name, _, t0, t1, _) in enumerate(spans[first:last]):
        out[name] = out.get(name, 0.0) + (t1 - t0) - child[i]
    return out


def nesting_errors(spans, first, last):
    """Spans of spans[first:last] that break the tree self times rely on.

    spans[first] is the pass's root.  Every other span must name a parent
    inside the pass, lie within the parent's interval and start after the
    parent's previous child ended (calls are sequential).  Returns messages.
    """
    errors = []
    sibling_end = {}
    for i in range(first, last):
        if spans[i] is None:
            errors.append(f"span {i} never closed")
            continue
        name, parent, t0, t1, _ = spans[i]
        if i == first:
            if parent is not None:
                errors.append(f"root span {i} ({name}) has parent {parent}")
            continue
        if parent is None or not first <= parent < i or spans[parent] is None:
            errors.append(f"span {i} ({name}) has parent {parent} outside the pass")
            continue
        _, _, p0, p1, _ = spans[parent]
        if not p0 <= t0 <= t1 <= p1:
            errors.append(f"span {i} ({name}) is not inside its parent {parent}")
        if t0 < sibling_end.get(parent, t0):
            errors.append(f"span {i} ({name}) overlaps its previous sibling")
        sibling_end[parent] = t1
    return errors
