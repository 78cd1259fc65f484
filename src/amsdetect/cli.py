"""Command-line harness.

Subcommands mirror the pipeline stages: ``simulate`` -> ``inject`` ->
``featurize`` -> ``fit`` -> ``select-centroids`` -> ``detect``, plus the
bundled ``experiment`` / ``suite`` runners and a ``report`` pretty-printer.

Exit codes: 0 success, 1 usage error, 2 runtime error (bad config values,
degenerate data, unreadable files, running out of memory).  All outputs go
under the path given by ``--out``; nothing else on disk is touched.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys

import numpy as np

from .bench import (evaluate, fit_model, report_table, report_to_csv, run_suite,
                    suite_table, suite_to_csv)
from .centroid import _SIGMA_SCOPES, refine_model
from .cluster import as_matrix, assign_many, load_model, save_model
from .config import (ALGORITHMS, ExperimentConfig, _check_sizes, _read_json, _stimulus,
                     load_suite)
from .earlydetect import detections_to_csv, latency_report, scan_windows
from .errors import AmsDetectError, ConfigurationError, InputError, _read_text
from .features import (FEATURE_NAMES, Dataset, NormalizationParams,
                       dataset_from_csv, dataset_to_csv, windowed_features)
from .inject import (FAULT_NAMES, PointPeriodic, PointRandom,
                     apply_component_fault, inject_points, record_to_csv)
from .waveforms import (_ANALYSES, OpampModel, VrefConfig, simulate_opamp,
                        simulate_vref, waveform_from_csv, waveform_to_csv)


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on usage errors, leaving 2 for runtime."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _outdir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _write(path: str, what: str) -> None:
    print(f"wrote {what}: {path}")


# ---------------------------------------------------------------- simulate

def _cmd_simulate(args) -> int:
    _check_sizes(args)
    if args.circuit == "vref_blocks":
        cfg = VrefConfig(noise_std=args.noise_std)
        taps = simulate_vref(cfg, args.n_samples, args.duration, args.seed)
        out = _outdir(args.out)
        for name, wave in taps.items():
            path = os.path.join(out, f"{name}.csv")
            waveform_to_csv(wave, path)
            _write(path, f"signal {name}")
        return 0
    # single op-amp style component
    model = OpampModel()
    if args.fault:
        model = apply_component_fault(model, args.fault, args.fault_temp)
    wave = simulate_opamp(model, args.analysis, _stimulus(args))
    out = _outdir(args.out)
    path = os.path.join(out, "output.csv")
    waveform_to_csv(wave, path)
    _write(path, f"{args.analysis} output")
    return 0


# ------------------------------------------------------------------ inject

def _cmd_inject(args) -> int:
    wave = waveform_from_csv(args.infile)
    kind = (PointRandom(args.rate_pct, args.amp_low, args.amp_high)
            if args.mode == "random" else
            PointPeriodic(args.threshold_frac, args.delta_frac))
    injected, record = inject_points(wave, kind, args.seed)
    out = _outdir(args.out)
    wpath = os.path.join(out, "injected.csv")
    rpath = os.path.join(out, "record.csv")
    waveform_to_csv(injected, wpath)
    record_to_csv(record, rpath)
    print(f"injected {len(record.positions)} of {len(wave)} samples "
          f"({args.mode})")
    _write(wpath, "injected waveform")
    _write(rpath, "injection record")
    return 0


# --------------------------------------------------------------- featurize

def _cmd_featurize(args) -> int:
    features = tuple(args.features.split(","))
    ids, feats = [], []
    for path in args.infiles:
        ids.append(os.path.splitext(os.path.basename(path))[0])
        wave = waveform_from_csv(path)
        try:
            feats.append(windowed_features(wave, args.windows or 1, features))
        except InputError as exc:
            raise InputError(f"{path}: {exc}") from None
    ds = Dataset.from_windows(ids, [args.label] * len(ids), feats)
    dataset_to_csv(ds, features, args.out)
    _write(args.out, f"dataset ({len(ds)} rows)")
    return 0


# --------------------------------------------------------------------- fit

def _cmd_fit(args) -> int:
    names, ds = dataset_from_csv(args.infile)
    mat, norm = ds.values, None
    if not args.no_normalize:
        norm = NormalizationParams(mat.min(axis=0), mat.max(axis=0))
        mat = norm.apply(mat)
    mat = as_matrix(mat)
    model = fit_model(args.algorithm, mat, seed=args.seed,
                      birch_branching=args.birch_branching,
                      birch_threshold=args.birch_threshold,
                      spectral_sigma=args.spectral_sigma)
    model.feature_names = list(names)
    model.norm = norm
    save_model(model, args.out)
    sizes = np.bincount(model.train_assignments, minlength=model.k)
    print(f"fit {model.algorithm} on {len(ds)} rows x {model.dim} dims")
    print("cluster sizes: " + ", ".join(str(int(s)) for s in sizes))
    for c in range(model.k):
        mu = ", ".join(f"{v:.4f}" for v in model.mu_k[c])
        print(f"cluster {c} member mean: [{mu}]")
    _write(args.out, "model")
    return 0


# ------------------------------------------------------- select-centroids

def _cmd_select_centroids(args) -> int:
    model = load_model(args.model)
    mat = as_matrix(dataset_from_csv(args.infile)[1])
    if model.norm is not None:
        mat = model.norm.apply(mat)
    refined = refine_model(model, mat, args.sigma_scope)
    save_model(refined, args.out)
    for d, pair in enumerate(refined.centroid_pairs or []):
        flags = []
        if pair.low_fallback:
            flags.append("low=fallback")
        if pair.high_fallback:
            flags.append("high=fallback")
        tail = f"  ({', '.join(flags)})" if flags else ""
        print(f"dim {d}: low {pair.low:.6f} (m={pair.m_l}) "
              f"high {pair.high:.6f} (m={pair.m_g}){tail}")
    _write(args.out, "refined model")
    return 0


# ------------------------------------------------------------------ detect

def _cmd_detect(args) -> int:
    model = load_model(args.model)
    _, ds = dataset_from_csv(args.infile)
    # samples in order of first appearance, each one's rows in window order
    code: dict[str, int] = {}
    sample = np.array([code.setdefault(s, len(code)) for s in ds.sample_ids])
    order = np.lexsort((ds.windows, sample))
    counts = np.bincount(sample)
    starts = np.cumsum(counts) - counts
    ids = list(code)
    wrong = ds.windows[order] != np.arange(len(ds)) - np.repeat(starts, counts)
    if wrong.any():
        bad = sample[order[wrong.argmax()]]
        raise InputError(f"{args.infile}: sample {ids[bad]!r} needs window "
                         f"indices 0..{counts[bad] - 1}, each once")
    mat = ds.values[order]
    asg = assign_many(model, mat if model.norm is None else model.norm.apply(mat))
    results = [None] * len(ids)
    for k in sorted(set(counts.tolist())):   # one scan per window count
        which = np.flatnonzero(counts == k)
        for s, r in zip(which, scan_windows(
                asg[starts[which, None] + np.arange(k)], args.samples_per_window,
                args.sample_period, model.anomalous_cluster,
                stop_early=not args.no_early_stop, sample_ids=[ids[s] for s in which])):
            results[s] = r
    rep = latency_report(results)
    if args.out:
        detections_to_csv(results, args.out)
        _write(args.out, "detections")
    for r in results:
        where = ("clean" if r.first_anomalous_window is None
                 else f"window {r.first_anomalous_window} "
                      f"(latency {r.latency_seconds:.3e} s, "
                      f"speedup {r.speedup:.2f}x)")
        print(f"{r.sample_id or '<signal>'}: {where}")
    print(f"detected {rep['n_detected']}/{rep['n_signals']} "
          f"(rate {rep['detect_rate']:.3f}), mean speedup "
          f"{rep['mean_speedup']:.3f}")
    return 0


# -------------------------------------------------------------- experiment

def _config_from_args(args) -> ExperimentConfig:
    data = _read_json(args.config) if args.config else {}
    if not isinstance(data, dict):
        raise ConfigurationError(f"{args.config}: expected a JSON object")
    if args.experiment:
        data["experiment"] = args.experiment
    if args.algorithm:
        data["algorithm"] = args.algorithm
    if args.windows is not None:
        data["window_k"] = args.windows or None
    if args.centroid_select:
        data["centroid_select"] = True
    if args.signals:
        data["observed_signals"] = args.signals.split(",")
    if args.features:
        data["features"] = args.features.split(",")
    if args.seed is not None:
        data["seed"] = args.seed
    if args.samples_per_class is not None:
        data["n_samples_per_class"] = args.samples_per_class
    if "experiment" not in data:
        raise InputError("need --experiment, or a --config file with an 'experiment' key")
    return ExperimentConfig.from_dict(data)


def _cmd_experiment(args) -> int:
    config = _config_from_args(args)
    report = evaluate(config)
    print(report_table(report), end="")
    if args.out:
        out = _outdir(args.out)
        cpath = os.path.join(out, "report.csv")
        report_to_csv(report, cpath)
        _write(cpath, "per-combination report")
    return 0


# ------------------------------------------------------------------- suite

def _cmd_suite(args) -> int:
    configs = load_suite(args.config)
    result = run_suite(configs)
    print(suite_table(result), end="")
    if args.out:
        out = _outdir(args.out)
        spath = os.path.join(out, "suite.csv")
        suite_to_csv(result, spath)
        _write(spath, "suite summary")
        for i, entry in enumerate(result.entries):
            if entry.report is None:
                continue
            rpath = os.path.join(
                out, f"report-{i:03d}-{entry.config.experiment}.csv")
            report_to_csv(entry.report, rpath)
    failed = sum(1 for e in result.entries if e.report is None)
    if failed:
        print(f"{failed} of {len(result.entries)} experiments failed",
              file=sys.stderr)
    return 0


# ------------------------------------------------------------------ report

def _cmd_report(args) -> int:
    rows = list(csv.DictReader(io.StringIO(_read_text(args.infile))))
    if not rows:
        raise InputError(f"{args.infile}: empty summary")
    cols = list(rows[0].keys())
    widths = {c: max(len(c), *(len(r[c] or "") for r in rows)) for c in cols}
    print("  ".join(c.ljust(widths[c]) for c in cols))
    for r in rows:
        print("  ".join((r[c] or "-").ljust(widths[c]) for c in cols))
    return 0


# ------------------------------------------------------------------ parser
# One function per subcommand adds its parser; ``main`` builds only the one
# that it runs.

def _simulate_parser(sub) -> None:
    p = sub.add_parser("simulate", help="simulate a circuit",
                       description="Simulate the block chain or a single "
                                   "component and write waveform CSVs.")
    p.add_argument("--circuit", default="vref_blocks",
                   choices=["vref_blocks", "opamp"])
    p.add_argument("--n-samples", type=int, default=1500,
                   help="samples per waveform (default 1500)")
    p.add_argument("--duration", type=float, default=20.0e-6,
                   help="simulated time span in seconds (default 20e-6)")
    p.add_argument("--noise-std", type=float, default=0.0,
                   help="additive input noise, volts RMS (default 0)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--analysis", default="transient", choices=_ANALYSES,
                   help="op-amp analysis mode (ignored for vref_blocks)")
    p.add_argument("--fault", default=None, choices=FAULT_NAMES,
                   help="apply a component fault before simulating")
    p.add_argument("--fault-temp", type=float, default=150.0,
                   help="evaluation temperature for Parametric, deg C")
    p.add_argument("--stim-dc", type=float, default=0.0, help="volts")
    p.add_argument("--stim-amplitude", type=float, default=0.02, help="volts")
    p.add_argument("--stim-frequency", type=float, default=1.0e6, help="hertz")
    p.add_argument("--sweep-start", type=float, default=None)
    p.add_argument("--sweep-stop", type=float, default=None)
    p.add_argument("--sweep-points", type=int, default=100)
    p.add_argument("--sweep-bias", type=float, default=0.05,
                   help="held value of the non-swept input (volts or deg C)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_simulate)


def _inject_parser(sub) -> None:
    p = sub.add_parser("inject", help="inject point anomalies into a waveform")
    p.add_argument("--in", dest="infile", required=True, help="waveform CSV")
    p.add_argument("--mode", required=True, choices=["random", "periodic"])
    p.add_argument("--rate-pct", type=float, default=0.5,
                   help="percent of samples hit (random mode, default 0.5)")
    p.add_argument("--amp-low", type=float, default=2.0,
                   help="lower amplitude multiple of the signal peak")
    p.add_argument("--amp-high", type=float, default=5.0,
                   help="upper amplitude multiple of the signal peak")
    p.add_argument("--threshold-frac", type=float, default=0.9,
                   help="peak fraction above which periodic mode fires")
    p.add_argument("--delta-frac", type=float, default=1.0,
                   help="added offset as a fraction of the signal peak")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_inject)


def _featurize_parser(sub) -> None:
    p = sub.add_parser("featurize", help="extract features from waveforms")
    p.add_argument("--in", dest="infiles", required=True, nargs="+",
                   help="waveform CSVs; one sample each")
    p.add_argument("--features", default=",".join(FEATURE_NAMES),
                   help="comma list from: " + ", ".join(FEATURE_NAMES))
    p.add_argument("--windows", type=int, default=0,
                   help="split each waveform into this many equal windows "
                        "(0 = whole-signal features)")
    p.add_argument("--label", type=int, default=0, choices=[0, 1],
                   help="label recorded for every row (default 0)")
    p.add_argument("--out", required=True, help="dataset CSV path")
    p.set_defaults(func=_cmd_featurize)


def _fit_parser(sub) -> None:
    p = sub.add_parser("fit", help="fit a 2-cluster model to a dataset")
    p.add_argument("--in", dest="infile", required=True, help="dataset CSV")
    p.add_argument("--algorithm", default="gmm", choices=ALGORITHMS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-normalize", action="store_true",
                   help="skip min-max normalization before fitting")
    p.add_argument("--birch-branching", type=int, default=16)
    p.add_argument("--birch-threshold", type=float, default=0.05,
                   help="leaf entry RMS radius threshold")
    p.add_argument("--spectral-sigma", type=float, default=0.3,
                   help="Gaussian affinity bandwidth")
    p.add_argument("--out", required=True, help="model JSON path")
    p.set_defaults(func=_cmd_fit)


def _select_centroids_parser(sub) -> None:
    p = sub.add_parser("select-centroids",
                       help="refine a saved model's centroids")
    p.add_argument("--model", required=True, help="model JSON")
    p.add_argument("--in", dest="infile", required=True,
                   help="dataset CSV the model was fit on")
    p.add_argument("--sigma-scope", default="global", choices=_SIGMA_SCOPES,
                   help="spread used for the selection interval bounds")
    p.add_argument("--out", required=True, help="refined model JSON path")
    p.set_defaults(func=_cmd_select_centroids)


def _detect_parser(sub) -> None:
    p = sub.add_parser("detect", help="windowed early detection")
    p.add_argument("--model", required=True, help="model JSON")
    p.add_argument("--in", dest="infile", required=True,
                   help="windowed dataset CSV (one sample per sample_id)")
    p.add_argument("--samples-per-window", type=int, required=True)
    p.add_argument("--sample-period", type=float, required=True,
                   help="seconds per sample")
    p.add_argument("--no-early-stop", action="store_true",
                   help="consume every window even after a hit")
    p.add_argument("--out", default=None, help="detections CSV path")
    p.set_defaults(func=_cmd_detect)


def _experiment_parser(sub) -> None:
    p = sub.add_parser("experiment", help="run one named experiment")
    p.add_argument("--config", default=None, help="experiment config JSON")
    p.add_argument("--experiment", default=None,
                   help="experiment name (overrides config)")
    p.add_argument("--algorithm", default=None, choices=ALGORITHMS)
    p.add_argument("--windows", type=int, default=None,
                   help="window count (0 disables windowing)")
    p.add_argument("--centroid-select", action="store_true")
    p.add_argument("--signals", default=None, help="comma list of signals")
    p.add_argument("--features", default=None, help="comma list of features")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--samples-per-class", type=int, default=None)
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=_cmd_experiment)


def _suite_parser(sub) -> None:
    p = sub.add_parser("suite", help="run a suite of experiments")
    p.add_argument("--config", required=True, help="suite JSON")
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=_cmd_suite)


def _report_parser(sub) -> None:
    p = sub.add_parser("report", help="pretty-print a summary CSV")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=_cmd_report)


_SUBCOMMANDS = {
    "simulate": _simulate_parser, "inject": _inject_parser,
    "featurize": _featurize_parser, "fit": _fit_parser,
    "select-centroids": _select_centroids_parser, "detect": _detect_parser,
    "experiment": _experiment_parser, "suite": _suite_parser,
    "report": _report_parser}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The full parser, or one with only ``command``'s subparser; the usage
    line still names every subcommand, so usage errors read the same."""
    parser = _Parser(prog="amsdetect",
                     description="Unsupervised anomaly detection harness for "
                                 "mixed-signal behavioral models.")
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if command is None else "{%s}" % ",".join(_SUBCOMMANDS))
    for name, add in _SUBCOMMANDS.items():
        if command in (None, name):
            add(sub)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse with only the subcommand ``argv[0]`` names; help, an unknown
    command or no arguments get the full tree."""
    command = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
    return build_parser(command).parse_args(argv)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except AmsDetectError as exc:
        key = f" (config key: {exc.config_key})" if getattr(
            exc, "config_key", None) else ""
        print(f"amsdetect: error: {exc}{key}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"amsdetect: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"amsdetect: error: out of memory{f' ({exc})' if str(exc) else ''}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
