"""Windowed early detection.

A fitted model scans a signal's window features in time order; the signal is
declared anomalous as soon as any window lands in the anomalous cluster.
Stopping at the first hit is what buys latency: consuming m of k windows of
an N-sample signal costs m*(N/k)*sample_period seconds instead of the full
N*sample_period, a factor k/m speedup.

Scoring a population assigns every window of every signal in one call and
then scans the (signals, windows) assignment array once (``scan_windows``);
``detect_windowed`` is the one-signal form of the same two steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cluster import ClusterModel, assign_many
from .errors import InputError

__all__ = ["DetectionResult", "scan_windows", "detect_windowed",
           "latency_report", "detections_to_csv"]


@dataclass
class DetectionResult:
    """Outcome of scanning one signal window-by-window."""

    sample_id: str
    per_window_assignment: list[int]      # assignments of the consumed windows
    first_anomalous_window: int | None    # 0-based, None if clean
    windows_total: int                    # k
    windows_consumed: int                 # m
    latency_seconds: float
    speedup: float

    @property
    def anomalous(self) -> bool:
        return self.first_anomalous_window is not None


def scan_windows(assignments, samples_per_window: int, sample_period: float,
                 anomalous_cluster: int, stop_early: bool = True,
                 sample_ids=None) -> list[DetectionResult]:
    """Scan each signal's window assignments in time order.

    :param assignments: (signals, k) cluster ids, one row per signal, its
        windows in time order
    :param samples_per_window: N/k samples represented by each window
    :param sample_period: seconds per sample (a unit step for DC sweeps)
    :param anomalous_cluster: cluster id treated as anomalous
    :param stop_early: stop consuming a signal's windows at its first hit
    :param sample_ids: one id per signal; empty ids when omitted
    :returns: one result per signal, every field a Python number or list
    """
    asg = np.asarray(assignments)
    if asg.ndim != 2 or asg.shape[1] == 0 or asg.dtype.kind not in "iu":
        raise InputError("assignments must be a (signals, k) integer array "
                         "with k >= 1")
    if samples_per_window < 1:
        raise InputError("samples_per_window must be >= 1")
    if not 0 < sample_period < math.inf:
        raise InputError("sample_period must be finite and > 0")
    if sample_ids is None:
        sample_ids = [""] * asg.shape[0]
    elif len(sample_ids) != asg.shape[0]:
        raise InputError(f"{len(sample_ids)} sample ids for {asg.shape[0]} signals")

    k = asg.shape[1]
    hits = asg == anomalous_cluster
    firsts = np.where(hits.any(axis=1), hits.argmax(axis=1), -1).tolist()
    results = []
    for sample_id, row, first in zip(sample_ids, asg.tolist(), firsts):
        m = first + 1 if stop_early and first >= 0 else k
        results.append(DetectionResult(
            sample_id=sample_id,
            per_window_assignment=row[:m],
            first_anomalous_window=first if first >= 0 else None,
            windows_total=k,
            windows_consumed=m,
            latency_seconds=m * samples_per_window * sample_period,
            speedup=k / m,
        ))
    return results


def detect_windowed(model: ClusterModel, window_features,
                    samples_per_window: int, sample_period: float,
                    stop_early: bool = True, anomalous_cluster: int | None = None,
                    sample_id: str = "") -> DetectionResult:
    """Assign one signal's windows and scan them (see ``scan_windows``).

    :param window_features: (k, d) feature vectors, one per window, in the
        same (normalized) space the model was fitted in; a 1-D array is one
        feature per window
    :param anomalous_cluster: cluster id treated as anomalous; defaults to
        the model's bound id
    :returns: result with latency m*(N/k)*sample_period and speedup k/m,
        where m is the number of windows actually consumed
    """
    bad = anomalous_cluster if anomalous_cluster is not None else model.anomalous_cluster
    if not 0 <= bad < model.k:
        raise InputError(f"anomalous_cluster {bad} out of range for k={model.k}")
    return scan_windows(assign_many(model, window_features)[None, :],
                        samples_per_window, sample_period, bad, stop_early,
                        [sample_id])[0]


def latency_report(results: list[DetectionResult]) -> dict:
    """Aggregate detection rate, mean speedup and mean latency-to-detect.

    Mean latency covers detected signals only (None when nothing was
    detected); mean speedup covers all signals (an undetected signal consumed
    every window, speedup k/k = 1 under early stopping).
    """
    if not results:
        raise InputError("latency_report needs at least one result")
    detected = [r for r in results if r.anomalous]
    return {
        "n_signals": len(results),
        "n_detected": len(detected),
        "detect_rate": len(detected) / len(results),
        "mean_speedup": float(np.mean([r.speedup for r in results])),
        "mean_latency_s": (float(np.mean([r.latency_seconds for r in detected]))
                           if detected else None),
    }


def detections_to_csv(results: list[DetectionResult], path) -> None:
    """Write ``sample_id,first_window,m,latency_s,speedup`` (first_window 0-based)."""
    with open(path, "w") as fh:
        fh.write("sample_id,first_window,m,latency_s,speedup\n")
        for r in results:
            first = "" if r.first_anomalous_window is None else r.first_anomalous_window
            fh.write(f"{r.sample_id},{first},{r.windows_consumed},"
                     f"{r.latency_seconds!r},{r.speedup!r}\n")
