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

Scoring and selection are separate steps: :func:`score_table` scores every
checkpoint once over the true and false negatives, and
:func:`calibrate_table` picks the epoch and threshold for one budget from
those scores. Every budget, and every attack evaluated at it, shares one
table.
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


@dataclass(frozen=True)
class ScoreTable:
    """Per-epoch incompatibility scores of the detector's calibration negatives.

    ``tn[e]`` and ``fn[e]`` hold checkpoint ``e``'s scores of the true and
    false negatives. Neither depends on the TNIR budget, so one table serves
    every control rate.
    """

    tn: tuple[np.ndarray, ...]
    fn: tuple[np.ndarray, ...]


def score_table(
    calib: Dataset, detector, series: encoders.CheckpointSeries, partition
) -> ScoreTable:
    """Score the detector's true and false negatives once per checkpoint."""
    if len(series) == 0:
        raise ValueError("checkpoint series is empty")
    if partition.digest() != series.partition_digest:
        raise ValueError("partition does not match the one the encoders were trained on")
    tn_rows, fn_rows = detector_negative_scores(calib, detector)
    if tn_rows.size == 0:
        raise CalibrationError(
            "no true negatives in the calibration set; cannot set a threshold"
        )
    if fn_rows.size == 0:
        warnings.warn("no false negatives in calibration data; FNIR defined as 0")
    x = calib.matrix()
    x_tn = x[tn_rows]
    x_fn = x[fn_rows] if fn_rows.size else None
    tn, fn = [], []
    for epoch in range(len(series)):
        pair = series[epoch]
        tn.append(encoders.batch_scores(pair, partition, x_tn))
        fn.append(np.empty(0) if x_fn is None else encoders.batch_scores(pair, partition, x_fn))
    return ScoreTable(tuple(tn), tuple(fn))


def calibrate_table(
    table: ScoreTable, control_rate: float = 5.0, method: str = "nearest_rank"
) -> CalibrationResult:
    """Pick the checkpoint and threshold maximizing FNIR at the TNIR budget."""
    rows = []
    best = 0
    for epoch, (tn_scores, fn_scores) in enumerate(zip(table.tn, table.fn)):
        t_n = percentile_threshold(tn_scores, control_rate, method)
        # score_table has warned once already when there are no false negatives.
        f_n = fnir(fn_scores, t_n) if fn_scores.size else 0.0
        rows.append(EpochCalibration(epoch, t_n, f_n))
        if f_n > rows[best].fnir:
            best = epoch
    return CalibrationResult(
        threshold=rows[best].threshold,
        best_epoch=best,
        tnir_at_threshold=tnir(table.tn[best], rows[best].threshold),
        fnir_at_threshold=rows[best].fnir,
        control_rate=float(control_rate),
        table=tuple(rows),
    )


def calibrate(
    calib: Dataset,
    detector,
    series: encoders.CheckpointSeries,
    partition,
    control_rate: float = 5.0,
    method: str = "nearest_rank",
) -> CalibrationResult:
    """Score every checkpoint once and calibrate at one TNIR budget."""
    return calibrate_table(score_table(calib, detector, series, partition), control_rate, method)
