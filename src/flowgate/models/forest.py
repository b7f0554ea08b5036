"""Bagged forest of gini trees with per-split feature subsampling."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..dataset import ColumnarTable
from ..errors import DataError
from ..parallel import parallel_map
from .tree import DecisionTreeModel, TreeHyperparams, _as_matrix, _grow_gini, predict_tree


@dataclass(frozen=True)
class ForestModel:
    trees: tuple[DecisionTreeModel, ...]
    params: TreeHyperparams
    n_classes: int
    n_features: int
    features_per_split: int
    bootstrap: bool
    seed: int

    def predict(self, data: "ColumnarTable | np.ndarray") -> np.ndarray:
        return predict_forest(self, data)


def fit_forest(
    train: ColumnarTable,
    n_trees: int = 25,
    params: TreeHyperparams = TreeHyperparams(),
    features_per_split: int | None = None,
    bootstrap: bool = True,
    seed: int = 0,
) -> ForestModel:
    """Fit n_trees trees on seeded bootstrap resamples.

    Per-tree seeds derive from the master seed, so the result is identical
    for any worker count. features_per_split defaults to ceil(sqrt(d));
    passing d (or disabling bootstrap with one tree) reduces the forest to a
    plain fit_tree.
    """
    if n_trees < 1:
        raise DataError(f"n_trees must be >= 1, got {n_trees}")
    X = train.feature_matrix()
    y = train.labels
    n, d = X.shape
    if n == 0 or d == 0:
        raise DataError("cannot fit a forest on an empty table")
    m = features_per_split if features_per_split is not None else math.isqrt(d - 1) + 1
    if not 1 <= m <= d:
        raise DataError(f"features_per_split must be in [1, {d}], got {m}")
    n_classes = train.n_classes
    children = np.random.SeedSequence(seed).spawn(n_trees)

    def build(child: np.random.SeedSequence) -> DecisionTreeModel:
        rng = np.random.default_rng(child)
        if bootstrap:
            rows = rng.integers(0, n, size=n)
            X_fit = np.ascontiguousarray(X[rows])
            y_fit = y[rows]
        else:
            X_fit, y_fit = X, y
        root = _grow_gini(X_fit, y_fit, n_classes, params, rng=rng, features_per_split=m)
        return DecisionTreeModel(root, params, n_classes, d)

    trees = parallel_map(build, children)
    return ForestModel(
        trees=tuple(trees),
        params=params,
        n_classes=n_classes,
        n_features=d,
        features_per_split=m,
        bootstrap=bootstrap,
        seed=seed,
    )


def predict_forest(model: ForestModel, data: "ColumnarTable | np.ndarray") -> np.ndarray:
    """Plurality vote over the trees; ties go to the lowest class id."""
    X = _as_matrix(data)
    votes = np.zeros((X.shape[0], model.n_classes), dtype=np.int64)
    for tree in model.trees:
        pred = predict_tree(tree, X)
        votes[np.arange(X.shape[0]), pred] += 1
    return np.argmax(votes, axis=1).astype(np.int64)
