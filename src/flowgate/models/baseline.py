"""Majority-class baseline.

Predicting the dominant class everywhere is the analytic stand-in for any
classifier that collapses to the majority under heavy imbalance: with
majority share r, the weighted aggregates come out as accuracy r,
precision r^2, recall r, f1 2r^2/(1+r).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dataset import ColumnarTable
from ..errors import DataError
from .tree import _as_matrix


@dataclass(frozen=True)
class BaselineModel:
    majority_class: int
    train_ratio: float
    n_classes: int

    def predict(self, data: "ColumnarTable | np.ndarray") -> np.ndarray:
        return predict_baseline(self, data)


def majority_baseline(train: ColumnarTable) -> BaselineModel:
    """Pick the most frequent training class (lowest class id on ties)."""
    counts = np.asarray(train.encoding.counts, dtype=np.int64)
    if train.n_rows == 0:
        raise DataError("cannot fit a baseline on zero rows")
    majority = int(np.argmax(counts))
    return BaselineModel(
        majority_class=majority,
        train_ratio=int(counts[majority]) / train.n_rows,
        n_classes=train.n_classes,
    )


def predict_baseline(model: BaselineModel, data: "ColumnarTable | np.ndarray") -> np.ndarray:
    """The majority class for every row of a table or feature matrix."""
    return np.full(_as_matrix(data).shape[0], model.majority_class, dtype=np.int64)
