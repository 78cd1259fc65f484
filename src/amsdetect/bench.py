"""Experiment harness: dataset generation, fitting, scoring and reports.

``generate_features`` walks (``walk``) one config's instances into raw
features; labels and sample ids follow from the instance index and ride
along for scoring only -- fitting never sees them.

Evaluation runs in three stages: prepare (simulate, min-max normalize each
feature column once, and list the signal/feature combinations as column
indices), fit (every combination's gathered columns through the one
dispatcher, ``_fit_many``, that ``fit_model`` and ``amsdetect fit`` use too)
and score.  ``evaluate`` is the one-entry case of ``run_suite``, so an
entry's report has the same bytes in a suite and alone.

Reproducibility contract: everything derives from ``config.seed`` through
per-sample child seeds, so a (config, seed) pair yields byte-identical
datasets and reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .centroid import refine_model
from .cluster import ClusterModel, as_matrix, assign_many, fit_birch, fit_spectral
from .cluster.gmm import _fit_gmm_lanes
from .cluster.kmeans import _fit_kmeans_lanes
from .config import (ALGORITHMS, ALL_EXPERIMENTS, BLOCK_EXPERIMENTS, FAULT_EXPERIMENTS,
                     ExperimentConfig, _check_algorithm, default_observed_signals,
                     load_suite)
from .earlydetect import latency_report, scan_windows
from .errors import AmsDetectError, ConfigurationError, FitError
from .features import Dataset, NormalizationParams
from .walk import _timebase, _Walk
# Unused here; perfbench/test_perfbench.py checks its tracer at this binding.
from .waveforms import simulate_vref  # noqa: F401

__all__ = [
    "BLOCK_EXPERIMENTS",
    "FAULT_EXPERIMENTS",
    "ALL_EXPERIMENTS",
    "ALGORITHMS",
    "ExperimentConfig",
    "ResultRow",
    "EvaluationReport",
    "SuiteEntry",
    "SuiteResult",
    "SUITE_CSV_HEADER",
    "default_observed_signals",
    "generate_features",
    "generate_dataset",
    "fit_model",
    "permutation_accuracy",
    "evaluate",
    "run_suite",
    "load_suite",
    "report_to_csv",
    "report_table",
    "suite_to_csv",
    "suite_table",
]


def _sample_id(label: int, idx: int) -> str:
    return f"{'anom' if label else 'clean'}-{idx:03d}"


def generate_features(config: ExperimentConfig) -> tuple[np.ndarray, int, float]:
    """Raw features of every instance, n clean then n anomalous.

    :returns: (feats, samples_per_window, sample_period) where feats has
        shape (2n, windows, signals, features), signals in
        ``observed_signals`` order and features in ``features`` order; the
        two scalars come from the simulated waveforms
    :raises AmsDetectError: the first error of the config's walk
    """
    return (_Walk([config]).run()[0], *_timebase(config))


def generate_dataset(config: ExperimentConfig) -> Dataset:
    """The config's full dataset, one row per (instance, window); its columns
    are every observed signal x selected feature."""
    feats = generate_features(config)[0]
    n = config.n_samples_per_class
    return Dataset.from_windows([_sample_id(*divmod(i, n)) for i in range(2 * n)],
                                np.arange(2 * n) // n, feats)


def _best_mappings(labels: np.ndarray, pred_if_1: np.ndarray, pred_if_0: np.ndarray
                   ) -> list[tuple[float, int, tuple[int, int, int, int]]]:
    """The better of two predictions per row of (rows, instances) arrays,
    made with cluster 1 or cluster 0 anomalous, all rows at once.

    Ties go to cluster 1.  A mean of 0/1 values and a count are exact, so
    each row gets the bytes it gets alone.  :returns: (accuracy, anomalous
    cluster id, (tn, fp, fn, tp)) per row
    """
    acc1 = np.mean(pred_if_1 == labels, axis=1)
    acc0 = np.mean(pred_if_0 == labels, axis=1)
    one = acc1 >= acc0
    pred = np.where(one[:, None], pred_if_1, pred_if_0)
    conf = [np.count_nonzero((labels == lab) & (pred == p), axis=1)
            for lab, p in ((0, 0), (0, 1), (1, 0), (1, 1))]
    return [(float(acc), int(bad), tuple(map(int, c)))
            for acc, bad, *c in zip(np.where(one, acc1, acc0), one, *conf)]


def permutation_accuracy(labels, assignments) -> tuple[float, int, tuple[int, int, int, int]]:
    """Best accuracy over the two cluster->label mappings.

    :returns: (accuracy fraction, cluster id treated as anomalous,
        (tn, fp, fn, tp)); never below 0.5 on balanced data
    """
    lab = np.asarray(labels, dtype=np.int64)
    asg = np.asarray(assignments, dtype=np.int64)
    if lab.shape != asg.shape or lab.size == 0:
        raise FitError("labels and assignments must be equal-length and non-empty")
    return _best_mappings(lab, asg[None], 1 - asg[None])[0]


@dataclass
class ResultRow:
    """Score of one (signals, feature) combination."""

    signal: str
    feature: str
    accuracy_pct: float
    tn: int = 0
    fp: int = 0
    fn: int = 0
    tp: int = 0
    detect_rate: float | None = None
    mean_speedup: float | None = None
    mean_latency_s: float | None = None
    error: str | None = None


@dataclass
class EvaluationReport:
    config: ExperimentConfig
    n_observations: int
    rows: list[ResultRow]

    @property
    def best(self) -> ResultRow:
        ok = [r for r in self.rows if r.error is None]
        if not ok:
            raise FitError("every signal/feature combination failed")
        return max(ok, key=lambda r: r.accuracy_pct)


def _fit_many(algorithm: str, mats: list[np.ndarray], params: list[tuple]) -> list:
    """Fit the named algorithm to each validated matrix of one shape, with
    its (seed, birch_branching, birch_threshold, spectral_sigma); a fit that
    fails yields its AmsDetectError.  k-means and GMM fit as lanes of one
    lockstep call, each lane with the bytes it gets alone."""
    _check_algorithm(algorithm)
    if algorithm in ("kmeans", "gmm"):
        fit = _fit_kmeans_lanes if algorithm == "kmeans" else _fit_gmm_lanes
        return fit(mats, [p[0] for p in params])
    out: list = []
    for mat, (seed, branching, threshold, sigma) in zip(mats, params):
        try:
            out.append(fit_birch(mat, branching, threshold) if algorithm == "birch"
                       else fit_spectral(mat, sigma, seed=seed))
        except AmsDetectError as exc:
            out.append(exc)
    return out


def fit_model(algorithm: str, mat: np.ndarray, *, seed: int, birch_branching: int,
              birch_threshold: float, spectral_sigma: float) -> ClusterModel:
    """Fit one 2-cluster model of the named algorithm to a validated matrix."""
    fit = _fit_many(algorithm, [mat],
                    [(seed, birch_branching, birch_threshold, spectral_sigma)])[0]
    if isinstance(fit, AmsDetectError):
        raise fit
    return fit


@dataclass
class _Prepared:
    """One config after simulation: ``values`` has a row per (instance,
    window) and a column per (signal, feature), signal-major, each min-max
    normalized over the rows; a combination is (signal name, feature name,
    its column indices)."""

    config: ExperimentConfig
    values: np.ndarray
    samples_per_window: int
    sample_period: float
    combos: list[tuple[str, str, list[int]]]


def _prepare(config: ExperimentConfig, feats: np.ndarray | None = None) -> _Prepared:
    """A config's features, simulated alone unless given, and its
    combinations: each signal and (with two or more) all of them, each with
    each feature and (with two or more) all of them, "agg"."""
    if feats is None:
        feats = generate_features(config)[0]
    raw = feats.reshape(feats.shape[0] * feats.shape[1], -1)
    signals, names = config.observed_signals, config.features
    n_sig, n_feat = len(signals), len(names)
    sig_sets = [[j] for j in range(n_sig)] + [list(range(n_sig))] * (n_sig > 1)
    feat_sets = [[f] for f in range(n_feat)] + [list(range(n_feat))] * (n_feat > 1)
    combos = [("+".join(signals[j] for j in js), names[fs[0]] if len(fs) == 1 else "agg",
               [j * n_feat + f for j in js for f in fs])
              for js in sig_sets for fs in feat_sets]
    return _Prepared(config, NormalizationParams(raw.min(0), raw.max(0)).apply(raw),
                     *_timebase(config), combos)


def _fit_jobs(jobs: list[tuple[_Prepared, list[int]]]) -> list:
    """Fit each (entry, columns) job; a job that fails yields its message.

    Jobs of one algorithm and shape, across combinations and entries alike,
    share one ``_fit_many`` call on their gathered columns, which are
    dropped after it.  A matrix that fails validation fails its job alone.
    """
    out: list = [None] * len(jobs)
    groups: dict[tuple[str, int, int], list[int]] = {}
    for i, (prep, cols) in enumerate(jobs):
        groups.setdefault((prep.config.algorithm, len(prep.values), len(cols)), []).append(i)
    for (algorithm, *_), idx in groups.items():
        mats = {}
        for i in idx:
            try:
                mats[i] = as_matrix(jobs[i][0].values[:, jobs[i][1]])
            except AmsDetectError as exc:
                out[i] = str(exc)
        if mats:        # a group whose matrices all fail fits nothing
            params = [(c.seed, c.birch_branching, c.birch_threshold, c.spectral_sigma)
                      for c in (jobs[i][0].config for i in mats)]
            for i, fit in zip(mats, _fit_many(algorithm, list(mats.values()), params)):
                out[i] = str(fit) if isinstance(fit, AmsDetectError) else fit
    return out


def _score(prep: _Prepared, fits: list) -> EvaluationReport:
    """Refine (when asked), assign and score each combination's fit.

    :raises FitError: every combination failed
    """
    config = prep.config
    n = config.n_samples_per_class
    n_inst, n_win = 2 * n, config.window_k or 1
    labels = np.repeat([0, 1], n)
    rows_out: list[ResultRow] = []
    assigned = {}           # row index -> (instances, windows) cluster ids
    for i, ((sig_name, feat_name, cols), model) in enumerate(zip(prep.combos, fits)):
        error = model if isinstance(model, str) else None
        if error is None:
            try:
                mat = as_matrix(prep.values[:, cols])
                if config.centroid_select:
                    model = refine_model(model, mat, config.sigma_scope)
                assigned[i] = assign_many(model, mat).reshape(n_inst, n_win)
            except AmsDetectError as exc:
                error = str(exc)
        rows_out.append(ResultRow(sig_name, feat_name, float("nan"), error=error))
    if assigned:
        # an instance is anomalous iff one of its windows is (a
        # whole-signal entry has one window)
        per_inst = np.stack(list(assigned.values()))
        mappings = _best_mappings(labels, (per_inst == 1).any(axis=2),
                                  (per_inst == 0).any(axis=2))
        for (i, asg), (acc, bad, conf) in zip(assigned.items(), mappings):
            row = rows_out[i]
            row.accuracy_pct, (row.tn, row.fp, row.fn, row.tp) = 100.0 * acc, conf
            if config.window_k:
                rep = latency_report(scan_windows(
                    asg[n:], prep.samples_per_window, prep.sample_period, bad))
                row.detect_rate, row.mean_speedup, row.mean_latency_s = (
                    rep["detect_rate"], rep["mean_speedup"], rep["mean_latency_s"])
    report = EvaluationReport(config, n_inst * n_win, rows_out)
    report.best  # raises FitError when every combination failed
    return report


def evaluate(config: ExperimentConfig) -> EvaluationReport:
    """Fit and score each signal/feature combination of one experiment.

    Combinations cover every observed signal per feature, each signal's
    aggregated feature tuple, and (for multi-signal configs) cross-signal
    tuples of each feature and of the full aggregate.  A combination's
    observation is its features concatenated signal-major, feature-minor.
    Windowed configs score instances: one is anomalous iff any window is.
    """
    prep = _prepare(config)
    return _score(prep, _fit_jobs([(prep, cols) for *_, cols in prep.combos]))


def report_to_csv(report: EvaluationReport, path) -> None:
    with open(path, "w") as fh:
        fh.write("signal,feature,accuracy_pct,tn,fp,fn,tp,"
                 "detect_rate,mean_speedup,mean_latency_s,error\n")
        for r in report.rows:
            if r.error is not None:
                err = r.error.replace(",", ";").replace("\n", " ")
                fh.write(f"{r.signal},{r.feature},,,,,,,,,{err}\n")
                continue
            detect = "" if r.detect_rate is None else f"{r.detect_rate:.4f}"
            speed = "" if r.mean_speedup is None else f"{r.mean_speedup:.6f}"
            lat = "" if r.mean_latency_s is None else f"{r.mean_latency_s:.6e}"
            fh.write(f"{r.signal},{r.feature},{r.accuracy_pct:.4f},"
                     f"{r.tn},{r.fp},{r.fn},{r.tp},{detect},{speed},{lat},\n")


def report_table(report: EvaluationReport) -> str:
    cfg = report.config
    lines = [f"experiment {cfg.experiment} on {cfg.circuit} | "
             f"algorithm {cfg.algorithm} | seed {cfg.seed} | "
             f"windows {cfg.window_k or '-'} | "
             f"centroid_select {'on' if cfg.centroid_select else 'off'}"]
    lines.append(f"{'signal':<42}{'feature':<10}{'acc%':>8}  "
                 f"{'detect':>7}{'speedup':>9}")
    for r in report.rows:
        if r.error is not None:
            lines.append(f"{r.signal:<42}{r.feature:<10}{'ERROR':>8}  {r.error}")
            continue
        detect = "" if r.detect_rate is None else f"{r.detect_rate:7.3f}"
        speed = "" if r.mean_speedup is None else f"{r.mean_speedup:9.3f}"
        lines.append(f"{r.signal:<42}{r.feature:<10}{r.accuracy_pct:8.2f}  "
                     f"{detect}{speed}")
    best = report.best
    lines.append(f"best: {best.signal} / {best.feature} "
                 f"at {best.accuracy_pct:.2f}%")
    return "\n".join(lines) + "\n"


@dataclass
class SuiteEntry:
    config: ExperimentConfig
    report: EvaluationReport | None
    error: str | None


@dataclass
class SuiteResult:
    entries: list[SuiteEntry]


def run_suite(configs: list[ExperimentConfig]) -> SuiteResult:
    """Evaluate each config; failures are recorded per entry, never fatal.

    Every entry is simulated first, in one ``_Walk`` over their populations.
    Then all of their combinations are fitted in one ``_fit_jobs`` call, so
    same-shape GMM fits of different entries share lockstep batches, and
    each entry is scored.  The walk stops at its first error, which names
    no entry; then every entry is prepared again alone, so each fails (or
    not) with the error ``evaluate`` raises.  Every report is the one
    ``evaluate`` gives.  What is held across entries is their feature
    arrays, raw until an entry is prepared and normalized after, never
    their waveforms.
    """
    if not configs:
        raise ConfigurationError("suite contains no experiments",
                                 config_key="experiments")
    try:
        feats = _Walk(configs).run()
    except AmsDetectError:
        feats = [None] * len(configs)
    prepared: list = []
    for i, cfg in enumerate(configs):
        try:
            prepared.append(_prepare(cfg, feats[i]))
        except AmsDetectError as exc:
            prepared.append(str(exc))
        feats[i] = None         # so raw and normalized features of all entries never coexist
    entries = [p for p in prepared if isinstance(p, _Prepared)]
    fits = iter(_fit_jobs([(p, cols) for p in entries for *_, cols in p.combos]))
    out = []
    for cfg, p in zip(configs, prepared):
        if isinstance(p, str):
            out.append(SuiteEntry(cfg, None, p))
            continue
        entry_fits = [next(fits) for _ in p.combos]
        try:
            out.append(SuiteEntry(cfg, _score(p, entry_fits), None))
        except AmsDetectError as exc:
            out.append(SuiteEntry(cfg, None, str(exc)))
    return SuiteResult(out)


SUITE_CSV_HEADER = ("experiment,circuit,algorithm,features,signals,windowed,"
                    "centroid_select,accuracy_pct,detect_rate,mean_speedup,seed")


def suite_to_csv(result: SuiteResult, path) -> None:
    """Combined plot-ready CSV, one row per suite entry (best combination)."""
    with open(path, "w") as fh:
        fh.write(SUITE_CSV_HEADER + "\n")
        for e in result.entries:
            cfg = e.config
            feats = "+".join(cfg.features)
            sigs = "+".join(cfg.observed_signals)
            windowed = cfg.window_k or 0
            select = 1 if cfg.centroid_select else 0
            if e.report is None:
                fh.write(f"{cfg.experiment},{cfg.circuit},{cfg.algorithm},"
                         f"{feats},{sigs},{windowed},{select},,,,{cfg.seed}\n")
                continue
            best = e.report.best
            detect = "" if best.detect_rate is None else f"{best.detect_rate:.4f}"
            speed = "" if best.mean_speedup is None else f"{best.mean_speedup:.6f}"
            fh.write(f"{cfg.experiment},{cfg.circuit},{cfg.algorithm},"
                     f"{feats},{sigs},{windowed},{select},"
                     f"{best.accuracy_pct:.4f},{detect},{speed},{cfg.seed}\n")


def suite_table(result: SuiteResult) -> str:
    lines = [f"{'experiment':<12}{'circuit':<17}{'algorithm':<10}"
             f"{'best acc%':>10}  note"]
    for e in result.entries:
        cfg = e.config
        if e.report is None:
            lines.append(f"{cfg.experiment:<12}{cfg.circuit:<17}"
                         f"{cfg.algorithm:<10}{'--':>10}  FAILED: {e.error}")
        else:
            best = e.report.best
            note = f"{best.signal}/{best.feature}"
            if best.detect_rate is not None:
                note += (f", detect {best.detect_rate:.2f}, "
                         f"speedup {best.mean_speedup:.2f}")
            lines.append(f"{cfg.experiment:<12}{cfg.circuit:<17}"
                         f"{cfg.algorithm:<10}{best.accuracy_pct:>10.2f}  {note}")
    return "\n".join(lines) + "\n"
