"""Multiclass evaluation: confusion matrix, one-vs-rest P/R/F1, aggregates.

Every reported value is a single correctly rounded division of exact integer
counts (f1 uses the 2*tp / (2*tp + fp + fn) form), and the weighted/macro
aggregates are accumulated as exact rationals before one final float
conversion. That makes weighted recall equal accuracy bit-for-bit whenever
every row receives a prediction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import DataError

MODE_WEIGHTED = "weighted"
MODE_MACRO = "macro"


class ConfusionMatrix:
    """K x K count matrix, rows = true class, columns = predicted class."""

    __slots__ = ("counts", "class_names")

    def __init__(self, counts: np.ndarray, class_names: Sequence[str] | None = None) -> None:
        counts = np.ascontiguousarray(counts, dtype=np.int64)
        if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
            raise DataError(f"confusion matrix must be square, got shape {counts.shape}")
        if counts.shape[0] < 1:
            raise DataError("confusion matrix needs at least one class")
        if np.any(counts < 0):
            raise DataError("confusion matrix counts must be non-negative")
        if class_names is None:
            class_names = tuple(str(i) for i in range(counts.shape[0]))
        class_names = tuple(class_names)
        if len(class_names) != counts.shape[0]:
            raise DataError("class_names length must match matrix size")
        counts.setflags(write=False)
        self.counts = counts
        self.class_names = class_names

    @property
    def n_classes(self) -> int:
        return int(self.counts.shape[0])

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def confusion_matrix(
    y_true: np.ndarray,
    y_pred: np.ndarray,
    n_classes: int,
    class_names: Sequence[str] | None = None,
) -> ConfusionMatrix:
    """Tally true/predicted class-id pairs into a ConfusionMatrix."""
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape or y_true.ndim != 1:
        raise DataError("y_true and y_pred must be equal-length vectors")
    if y_true.size == 0:
        raise DataError("cannot build a confusion matrix from zero rows")
    if n_classes < 1:
        raise DataError(f"n_classes must be >= 1, got {n_classes}")
    for name, arr in (("y_true", y_true), ("y_pred", y_pred)):
        if arr.min() < 0 or arr.max() >= n_classes:
            raise DataError(f"{name} holds ids outside [0, {n_classes})")
    flat = y_true * n_classes + y_pred
    counts = np.bincount(flat, minlength=n_classes * n_classes).reshape(
        n_classes, n_classes
    )
    return ConfusionMatrix(counts, class_names)


def accuracy(matrix: ConfusionMatrix) -> float:
    """Trace over total."""
    total = matrix.total
    if total == 0:
        raise DataError("confusion matrix is empty")
    return int(np.trace(matrix.counts)) / total


@dataclass(frozen=True)
class ClassMetrics:
    """One-vs-rest counts and derived scores for a single class."""

    class_id: int
    tp: int
    fp: int
    fn: int
    support: int
    precision: float
    recall: float
    f1: float


def _exact_class_values(tp: int, fp: int, fn: int) -> tuple[Fraction, Fraction, Fraction]:
    """One class's exact precision, recall and f1, with the zero conventions:
    precision = 0 when the class is never predicted, recall = 0 when support
    is 0, f1 = 0 when precision + recall = 0."""
    precision = Fraction(tp, tp + fp) if tp + fp > 0 else Fraction(0)
    recall = Fraction(tp, tp + fn) if tp + fn > 0 else Fraction(0)
    denom = 2 * tp + fp + fn
    f1 = Fraction(2 * tp, denom) if denom > 0 else Fraction(0)
    return precision, recall, f1


def per_class_prf(matrix: ConfusionMatrix) -> list[ClassMetrics]:
    """One-vs-rest precision/recall/f1, each the float of its exact value."""
    counts = matrix.counts
    out = []
    for k in range(matrix.n_classes):
        tp = int(counts[k, k])
        fp = int(counts[:, k].sum()) - tp
        fn = int(counts[k, :].sum()) - tp
        precision, recall, f1 = (float(v) for v in _exact_class_values(tp, fp, fn))
        out.append(ClassMetrics(k, tp, fp, fn, tp + fn, precision, recall, f1))
    return out


@dataclass(frozen=True)
class EvalReport:
    accuracy: float
    precision: float
    recall: float
    f1: float
    average_of_four: float
    mode: str
    per_class: tuple[ClassMetrics, ...]
    class_names: tuple[str, ...]

    def as_row(self) -> tuple[float, float, float, float]:
        return (self.accuracy, self.precision, self.recall, self.f1)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "accuracy": self.accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "average_of_four": self.average_of_four,
            "per_class": [
                {
                    "class": name,
                    "precision": m.precision,
                    "recall": m.recall,
                    "f1": m.f1,
                    "support": m.support,
                }
                for name, m in zip(self.class_names, self.per_class)
            ],
        }


def aggregate(
    per_class: Sequence[ClassMetrics],
    mode: str = MODE_WEIGHTED,
    class_names: Sequence[str] | None = None,
) -> EvalReport:
    """Fold per-class metrics into a report.

    weighted: support-proportional mean, the published convention for these
    imbalanced benchmarks; macro: unweighted mean over classes.
    """
    if mode not in (MODE_WEIGHTED, MODE_MACRO):
        raise DataError(f"unknown aggregation mode {mode!r}")
    if not per_class:
        raise DataError("no per-class metrics to aggregate")
    total = sum(m.support for m in per_class)
    if total == 0:
        raise DataError("total support is zero")
    trace = sum(m.tp for m in per_class)
    acc = trace / total

    p_sum = Fraction(0)
    r_sum = Fraction(0)
    f_sum = Fraction(0)
    for m in per_class:
        precision, recall, f1 = _exact_class_values(m.tp, m.fp, m.fn)
        weight = Fraction(m.support, total) if mode == MODE_WEIGHTED else Fraction(
            1, len(per_class)
        )
        p_sum += weight * precision
        r_sum += weight * recall
        f_sum += weight * f1
    precision_f = float(p_sum)
    recall_f = float(r_sum)
    f1_f = float(f_sum)
    if class_names is None:
        class_names = tuple(str(m.class_id) for m in per_class)
    return EvalReport(
        accuracy=acc,
        precision=precision_f,
        recall=recall_f,
        f1=f1_f,
        average_of_four=(acc + precision_f + recall_f + f1_f) / 4.0,
        mode=mode,
        per_class=tuple(per_class),
        class_names=tuple(class_names),
    )


def evaluate(matrix: ConfusionMatrix, mode: str = MODE_WEIGHTED) -> EvalReport:
    """Convenience: per_class_prf + aggregate with the matrix's class names."""
    return aggregate(per_class_prf(matrix), mode=mode, class_names=matrix.class_names)
