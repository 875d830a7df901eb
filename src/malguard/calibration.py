"""Threshold calibration over per-epoch encoder checkpoints.

The calibration set is split by the detector's own verdicts into true
negatives (benign, predicted benign) and false negatives (malicious,
predicted benign). For every checkpoint the threshold is set at the
(100 - K)th percentile of the true-negative scores, so close to K percent of
true negatives score above it, and the checkpoint whose threshold catches
the largest fraction of false negatives wins (first epoch wins ties). A
sample counts as flagged only when its score is strictly greater than the
threshold.

TNIR is the fraction of true negatives above the threshold (the controlled
false-alarm budget); FNIR is the fraction of false negatives above it (the
recovered misses).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from malguard import encoders
from malguard.data import BENIGN, MALICIOUS, Dataset


class CalibrationError(ValueError):
    """Calibration cannot proceed (for example, no true negatives exist)."""


def tnir(scores, threshold: float) -> float:
    """Fraction of true-negative scores strictly above the threshold."""
    arr = np.asarray(scores, dtype=np.float64)
    if arr.size == 0:
        raise CalibrationError("cannot compute TNIR over an empty score set")
    return float((arr > threshold).mean())


def fnir(scores, threshold: float) -> float:
    """Fraction of false-negative scores strictly above the threshold.

    An empty score set means the detector made no misses on the calibration
    data; the rate is defined as 0 and a warning is emitted because epoch
    selection then has nothing to maximize.
    """
    arr = np.asarray(scores, dtype=np.float64)
    if arr.size == 0:
        warnings.warn("no false negatives in calibration data; FNIR defined as 0")
        return 0.0
    return float((arr > threshold).mean())


def percentile_threshold(scores, control_rate: float, method: str = "nearest_rank") -> float:
    """Threshold at the (100 - control_rate)th percentile of the scores."""
    arr = np.sort(np.asarray(scores, dtype=np.float64))
    if arr.size == 0:
        raise CalibrationError("cannot take a percentile of an empty score set")
    if not 0.0 < control_rate < 100.0:
        raise ValueError(f"control rate must be in (0, 100), got {control_rate}")
    p = 100.0 - control_rate
    if method == "nearest_rank":
        rank = max(1, math.ceil(p / 100.0 * arr.size))
        return float(arr[rank - 1])
    if method == "linear":
        return float(np.percentile(arr, p, method="linear"))
    raise ValueError(f"unknown percentile method {method!r}")


@dataclass(frozen=True)
class EpochCalibration:
    epoch: int
    threshold: float
    fnir: float


@dataclass(frozen=True)
class CalibrationResult:
    threshold: float
    best_epoch: int
    tnir_at_threshold: float
    fnir_at_threshold: float
    control_rate: float
    table: tuple[EpochCalibration, ...]


def detector_negative_scores(calib: Dataset, detector) -> tuple[np.ndarray, np.ndarray]:
    """Row positions of the detector's true negatives and false negatives."""
    pred_scores = detector.decision_scores(calib.matrix())
    pred_malicious = pred_scores > detector.decision_threshold
    tn_rows, fn_rows = [], []
    for i, s in enumerate(calib.samples):
        if pred_malicious[i]:
            continue
        if s.label == BENIGN:
            tn_rows.append(i)
        elif s.label == MALICIOUS:
            fn_rows.append(i)
    return np.asarray(tn_rows, dtype=np.int64), np.asarray(fn_rows, dtype=np.int64)


def calibrate(
    calib: Dataset,
    detector,
    series: encoders.CheckpointSeries,
    partition,
    control_rate: float = 5.0,
    method: str = "nearest_rank",
) -> CalibrationResult:
    """Pick the checkpoint and threshold maximizing FNIR at the TNIR budget."""
    if len(series) == 0:
        raise ValueError("checkpoint series is empty")
    if partition.digest() != series.partition_digest:
        raise ValueError("partition does not match the one the encoders were trained on")
    tn_rows, fn_rows = detector_negative_scores(calib, detector)
    if tn_rows.size == 0:
        raise CalibrationError(
            "no true negatives in the calibration set; cannot set a threshold"
        )
    x = calib.matrix()
    x_tn = x[tn_rows]
    x_fn = x[fn_rows] if fn_rows.size else None

    table = []
    best: EpochCalibration | None = None
    for epoch in range(len(series)):
        pair = series[epoch]
        scores = encoders.batch_scores(pair, partition, x_tn)
        t_n = percentile_threshold(scores, control_rate, method)
        if x_fn is not None:
            f_n = fnir(encoders.batch_scores(pair, partition, x_fn), t_n)
        else:
            f_n = fnir(np.empty(0), t_n)
        row = EpochCalibration(epoch, t_n, f_n)
        table.append(row)
        if best is None or row.fnir > best.fnir:
            best, tn_scores = row, scores
    return CalibrationResult(
        threshold=best.threshold,
        best_epoch=best.epoch,
        tnir_at_threshold=tnir(tn_scores, best.threshold),
        fnir_at_threshold=best.fnir,
        control_rate=float(control_rate),
        table=tuple(table),
    )
