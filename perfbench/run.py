#!/usr/bin/env python3
"""Run one amsdetect benchmark workload and print its metrics.

From the repository root:

    python3 perfbench/run.py --workload suite_full --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched;
``--trace 1`` alternates untraced and traced passes and prints the per-layer
metrics (names and units in BENCHMARK.json).  Every pass, the warm-up pass
included, is checked against the goldens in ``perfbench/golden``.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.  A summary and the span file go to ``perfbench/out``.
"""

import os

# BLAS threads are fixed before numpy loads: with the library default a
# first spectral fit at n=200 once took 396 ms instead of ~12 ms.
THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# Set-up is timed in fresh processes: at least SETUP_MIN times and until
# SETUP_BUDGET_S host seconds of set-up are measured, SETUP_MAX times at most.
# A short set-up (~0.3 s, mostly imports) needs more samples than a long one.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 5, 15, 3.0
SETUP_REF_REPS = 9  # reference runs on each side of a set-up
REF_NOMINAL_S = 0.005     # setup_s is in seconds of a host whose reference loop takes this
MIN_PASSES = 2      # per measured mode, however long a pass takes
REF_LOOPS = 50_000        # reference loop: interpreter iterations ...
REF_ARRAY_LOOPS = 75      # ... and small-array numpy rounds
SIM_FUNCS = ("simulate_vref", "simulate_opamp", "simulate_kstage",
             "vref_input_block", "vref_pll_block", "vref_trig_block",
             "vref_output_block", "build_kstage", "stage_model")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="build the workload and exit (used to time set-up)")
    return p.parse_args(argv)


def load_golden(name, seed):
    path = HERE / "golden" / f"{name}.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text()).get(str(seed), {})


def environment(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": THREADS,
            "nproc": len(os.sched_getaffinity(0))}


def time_setup(args, np):
    """Set-up of a fresh process that imports, loads config and builds inputs.

    Returns (host seconds, seconds scaled to a host whose reference loop takes
    REF_NOMINAL_S), the reference loop timed right before and after it.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    ref = reference_s(np, SETUP_REF_REPS)
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    dt = time.perf_counter() - t0
    return dt, dt / (0.5 * (ref + reference_s(np, SETUP_REF_REPS))) * REF_NOMINAL_S


class Runner:
    """Times passes of one workload and checks each one against the goldens."""

    def __init__(self, workload, golden):
        self.w = workload
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.last_ok = None

    def one_pass(self, run=None):
        """Run, time and check one pass; returns (seconds, output or None)."""
        self.w.before_pass()
        run = run or self.w.run
        t0 = time.perf_counter()
        try:
            out = run()
        except Exception:
            # a raising pass fails all its operations; keep measuring
            traceback.print_exc()
            dt = time.perf_counter() - t0
            n = len(self.golden) or self.w.items
            self.attempted += n
            self.failed += n
            return dt, None
        dt = time.perf_counter() - t0
        got = self.w.digests(out)
        ops = set(self.golden) | set(got)
        self.attempted += len(ops)
        self.failed += sum(got.get(k) != self.golden.get(k) for k in ops)
        self.last_ok = out
        return dt, out


def reference_s(np, reps=5):
    """Host time of a fixed loop of interpreter and small-array numpy work.

    Median of ``reps`` runs of about 5-7 ms.  On a shared 2-vCPU KVM guest
    the host's speed swings by up to 2x over seconds to minutes, and pass
    times swing with it; pass times divided by this loop hold still (there,
    over ten runs of 20 s, windowed_detect's median pass spread 0.32 in host
    seconds and 0.04-0.07 in reference units).
    """
    x = np.linspace(0.0, 1.0, 1500)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(REF_LOOPS):
            acc += i * 0.5
        for k in range(REF_ARRAY_LOOPS):
            y = x * (k + 1.0)
            acc += float(np.mean(y)) + float(np.var(y)) + float(np.clip(y, 0.2, 0.8).sum())
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def measure(seconds, modes, np, between):
    """Alternate the given pass modes for ``seconds``, MIN_PASSES each at least.

    A round that starts before the time is up runs to its end.  ``between()``
    runs after each round; the time it takes does not count against
    ``seconds``.  The reference loop is timed before the first pass and after
    every pass.  Returns the pass times per mode and the reference times.
    """
    samples = {m: [] for m in modes}
    refs = [reference_s(np)]
    start = time.perf_counter()
    while (min(len(s) for s in samples.values()) < MIN_PASSES
           or time.perf_counter() - start < seconds):
        for mode, run in modes.items():
            samples[mode].append(run())
            refs.append(reference_s(np))
        t0 = time.perf_counter()
        between()
        start += time.perf_counter() - t0
    return samples, refs


def tail(samples):
    """Median and the highest percentile with at least 10 samples beyond it."""
    n = len(samples)
    ordered = sorted(samples)
    text = f"median {statistics.median(samples):.6f} s"
    if n >= 11:
        k = n - 10                      # samples at or below the percentile
        text += f", p{100 * k // n} {ordered[k - 1]:.6f} s"
    else:
        text += " (too few samples for a tail percentile)"
    return text + f" (n={n} passes)"


def layer_metrics(tracer_mod, tr, passes, workload_counters):
    """Per-layer numbers averaged over the traced passes."""
    calls, selfs, notes, cells = {}, {}, {}, {}
    errors = {}
    for first, last, _ in passes:
        spans = tr.spans[first:last]
        for name, s in tracer_mod.self_times(tr.spans, first, last).items():
            selfs[name] = selfs.get(name, 0.0) + s
        for name, parent, t0, t1, note in spans:
            calls[name] = calls.get(name, 0) + 1
            if note == tracer_mod.ERROR:
                errors[name] = errors.get(name, 0) + 1
            elif note:
                bucket = notes.setdefault(name, {})
                for k, v in note.items():
                    bucket[k] = bucket.get(k, 0) + v
            top_fit = parent == first and name.startswith("cluster.fit_")
            if top_fit and note != tracer_mod.ERROR:
                key = f"{name}.n{note['rows']}.s"
                cells[key] = cells.get(key, 0.0) + (t1 - t0)
    n = len(passes)

    def total(names, key):
        return sum(notes.get(f, {}).get(key, 0) for f in names)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name in set(calls) | set(selfs):
        m[f"{name}.calls"] = calls.get(name, 0) / n
        m[f"{name}.self_s"] = selfs.get(name, 0.0) / n
    for layer in tracer_mod.LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in selfs.items()
                                   if k.startswith(layer + ".")) / n
    m["harness.self_s"] = selfs.get(tracer_mod.HARNESS, 0.0) / n
    sims = [f"waveforms.{f}" for f in SIM_FUNCS]
    samples = total(sims, "samples")
    m["waveforms.samples"] = samples / n
    m["waveforms.ns_per_sample"] = 1e9 * ratio(sum(selfs.get(f, 0.0) for f in sims), samples)
    # every simulated chain keeps exactly one output-stage result; the re-runs
    # inside inject_multipoint replace it
    m["waveforms.vref_output_block.useful_ratio"] = ratio(
        calls.get("waveforms.simulate_vref", 0), calls.get("waveforms.vref_output_block", 0))
    m["features.normalize_dataset.rows"] = total(["features.normalize_dataset"], "rows") / n
    m["cluster.assign_many.rows"] = total(["cluster.assign_many"], "rows") / n
    fits = [f"cluster.fit_{a}" for a in ("kmeans", "gmm", "birch", "spectral")]
    m["cluster.iters"] = total(fits, "iters") / n
    m["cluster.capped_ratio"] = ratio(total(fits, "capped"), total(fits, "histories"))
    m["cluster.fit_fail_ratio"] = ratio(sum(errors.get(f, 0) for f in fits),
                                        sum(calls.get(f, 0) for f in fits))
    m["centroid.fallback_ratio"] = ratio(total(["centroid.refine_model"], "fallbacks"),
                                         total(["centroid.refine_model"], "sides"))
    m["earlydetect.windows_consumed_ratio"] = ratio(
        total(["earlydetect.detect_windowed"], "consumed"),
        total(["earlydetect.detect_windowed"], "total"))
    m["bench.combos"] = total(["bench.evaluate"], "combos") / n
    m["bench.rows"] = total(["bench.evaluate"], "rows") / n
    for key, v in cells.items():
        m[f"cluster.{key.split('.', 1)[1]}"] = v / n
    m.update(workload_counters)
    return m


def emit(spec_key, values, spec, result):
    """Pick the spec's metrics out of ``values``; a layer never called reads 0."""
    default = {} if spec_key == "end_to_end" else {e["name"]: 0.0 for e in spec[spec_key]}
    values = {**default, **values}
    result["metrics"] = {e["name"]: {"value": values[e["name"]], "unit": e["unit"]}
                         for e in spec[spec_key]}
    return result


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "amsdetect" / "__init__.py").is_file():
        print(f"run.py: no amsdetect sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import amsdetect
    import tracer as tracer_mod
    import workloads

    if Path(amsdetect.__file__).resolve().parent != SRC / "amsdetect":
        print(f"run.py: imported amsdetect from {amsdetect.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            workloads.WORKLOADS[args.workload](args.seed, workdir)
            return 0
        return run(args, spec, np, tracer_mod, workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, spec, np, tracer_mod, workloads, workdir):
    cls = workloads.WORKLOADS[args.workload]
    setup = []                         # (host seconds, scaled seconds)

    def setup_step():
        """Time one fresh-process set-up, until enough are done.

        The set-ups are spread over the run (one before the warm-up, one
        after each round of passes, the rest at the end) rather than run
        back to back, so they do not all fall into one phase of the host.
        """
        host_s = sum(dt for dt, _ in setup)
        if args.trace or len(setup) >= SETUP_MAX or (
                len(setup) >= SETUP_MIN and host_s >= SETUP_BUDGET_S):
            return False
        setup.append(time_setup(args, np))
        return True

    setup_step()
    w = cls(args.seed, workdir)
    runner = Runner(w, load_golden(w.name, w.seed))
    warmup_s, _ = runner.one_pass()

    tr = tracer_mod.Tracer()
    traced = []                        # (first span, end span, pass seconds)

    def traced_pass():
        tr.install()
        try:
            first = len(tr.spans)
            dt, out = runner.one_pass(lambda: tr.run_pass(w.run)[0])
        finally:
            tr.uninstall()
        traced.append((first, len(tr.spans), dt))
        return dt

    modes = {"untraced": lambda: runner.one_pass()[0]}
    if args.trace:
        modes["traced"] = traced_pass
    samples, refs = measure(args.seconds, modes, np, setup_step)
    while setup_step():
        pass
    out = runner.last_ok
    if out is None:
        print("run.py: no pass completed", file=sys.stderr)
        return 1

    wall = statistics.median(samples["untraced"])
    env = environment(np)
    lines = [f"workload {w.name}  seed {args.seed} (golden seed {w.seed})  trace {args.trace}",
             "env " + "  ".join(f"{k} {v}" for k, v in env.items()),
             f"wall_s {tail(samples['untraced'])}"]
    if args.trace == 0:
        values = {"setup_s": statistics.median(scaled for _, scaled in setup),
                  # the host's speed flips between a fast and a slow phase
                  # within a pass, so the mean of the reference times, not
                  # the reference next to each pass, is the speed passes saw
                  "wall_ref": wall / statistics.mean(refs),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        values.update(w.quality(out))
        lines.append(f"items_per_s {w.items / wall} 1/s "
                     f"({w.items} per pass, one {w.item} each)")
        host = [dt for dt, _ in setup]
        lines.append(f"setup_host_s median {statistics.median(host)} s, samples {host} "
                     f"(setup_s scales each to a {REF_NOMINAL_S} s reference loop)")
    else:
        for first, last, dt in traced:
            _, _, t0, t1, _ = tr.spans[first]
            errors = tracer_mod.nesting_errors(tr.spans, first, last)
            if t1 - t0 > dt:
                errors.append(f"root span {t1 - t0:.6f} s outlasts the pass {dt:.6f} s")
            if errors:
                raise RuntimeError("broken span tree: " + "; ".join(errors[:5]))
        values = layer_metrics(tracer_mod, tr, traced, w.counters(out))
        values["trace.wall_s"] = statistics.median(samples["traced"])
        values["trace.overhead_s"] = values["trace.wall_s"] - wall
        values["setup.warmup_s"] = warmup_s
        lines.append(f"traced wall_s {tail(samples['traced'])}")
        tr.write(OUT / f"{w.name}.spans.jsonl")
    failed_frac = runner.failed / runner.attempted
    lines.append(f"failed_frac {failed_frac} ratio "
                 f"({runner.failed} of {runner.attempted} operations)")
    result = emit("end_to_end" if args.trace == 0 else "per_layer", values, spec,
                  {"correct": runner.failed == 0, "attempted": runner.attempted,
                   "failed": runner.failed})
    for name, m in result["metrics"].items():
        lines.append(f"{name} {m['value']} {m['unit']}")
    (OUT / f"{w.name}-trace{args.trace}.json").write_text(json.dumps(
        {"seed": args.seed, "golden_seed": w.seed, "env": env, "samples": samples,
         "ref_samples": refs, "setup_samples": setup, "all_values": values,
         **result}, indent=1) + "\n")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
