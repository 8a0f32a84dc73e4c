"""Confusion-matrix metrics and ROC/AUC.

Metrics with a zero denominator are reported as None (explicit
not-a-value), never silently coerced to 0.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .records import ConfusionMatrix


class LengthMismatch(ValueError):
    pass


class SingleClass(ValueError):
    pass


@dataclass(frozen=True)
class MetricsReport:
    accuracy: Optional[float]
    sensitivity: Optional[float]
    specificity: Optional[float]
    precision: Optional[float]
    f1: Optional[float]
    confusion: ConfusionMatrix
    auc: Optional[float] = None
    roc_points: tuple[tuple[float, float], ...] = ()


def confusion(y_true: Sequence[int], y_pred: Sequence[int]) -> ConfusionMatrix:
    """Count TP/FP/TN/FN for binary labels (1 = positive)."""
    yt = np.asarray(y_true).astype(int)
    yp = np.asarray(y_pred).astype(int)
    if yt.shape != yp.shape:
        raise LengthMismatch(f"{yt.shape} vs {yp.shape}")
    tp = int(np.sum((yt == 1) & (yp == 1)))
    fp = int(np.sum((yt == 0) & (yp == 1)))
    tn = int(np.sum((yt == 0) & (yp == 0)))
    fn = int(np.sum((yt == 1) & (yp == 0)))
    return ConfusionMatrix(tp=tp, fp=fp, tn=tn, fn=fn)


def _ratio(num: int, den: int) -> Optional[float]:
    return None if den == 0 else num / den


def metrics(cm: ConfusionMatrix) -> MetricsReport:
    """Scalar metrics from confusion counts; undefined ratios become None."""
    accuracy = _ratio(cm.tp + cm.tn, cm.total)
    sensitivity = _ratio(cm.tp, cm.tp + cm.fn)
    specificity = _ratio(cm.tn, cm.tn + cm.fp)
    precision = _ratio(cm.tp, cm.tp + cm.fp)
    if precision is None or sensitivity is None or (precision + sensitivity) == 0:
        f1 = None
    else:
        f1 = 2 * precision * sensitivity / (precision + sensitivity)
    return MetricsReport(
        accuracy=accuracy,
        sensitivity=sensitivity,
        specificity=specificity,
        precision=precision,
        f1=f1,
        confusion=cm,
    )


def roc_auc(y_true: Sequence[int], scores: Sequence[float]) -> tuple[float, list[tuple[float, float]]]:
    """ROC sweep over all distinct score thresholds plus trapezoidal AUC.

    The returned AUC equals the pairwise Mann-Whitney statistic with ties
    counted one half. Points run from (0, 0) to (1, 1) and are monotone
    non-decreasing in both coordinates.
    """
    yt = np.asarray(y_true).astype(int)
    s = np.asarray(scores, dtype=np.float64)
    if yt.shape != s.shape:
        raise LengthMismatch(f"{yt.shape} vs {s.shape}")
    n_pos = int(np.sum(yt == 1))
    n_neg = int(np.sum(yt == 0))
    if n_pos == 0 or n_neg == 0:
        raise SingleClass("ROC needs both classes present")

    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    y_sorted = yt[order]

    tps = np.cumsum(y_sorted == 1)
    fps = np.cumsum(y_sorted == 0)
    # keep only the last index of each tied score block
    distinct = np.flatnonzero(np.diff(s_sorted) != 0)
    idx = np.concatenate([distinct, [len(s_sorted) - 1]])

    tpr = np.concatenate([[0.0], tps[idx] / n_pos])
    fpr = np.concatenate([[0.0], fps[idx] / n_neg])
    auc = float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1]) / 2.0))
    points = [(float(f), float(t)) for f, t in zip(fpr, tpr)]
    return auc, points


def evaluate_predictions(y_true, y_pred, scores=None) -> MetricsReport:
    """Full report: confusion scalars plus ROC/AUC when scores are given."""
    report = metrics(confusion(y_true, y_pred))
    if scores is not None:
        auc, points = roc_auc(y_true, scores)
        report = replace(report, auc=auc, roc_points=tuple(points))
    return report
