"""Bagged forest of gini trees with per-split feature subsampling."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ..dataset import ColumnarTable
from ..errors import DataError
from ..parallel import parallel_map
from .tree import Tree, TreeHyperparams, _as_matrix, _classify, _grow_gini


@dataclass(frozen=True)
class ForestParams(TreeHyperparams):
    """The tree settings, applied to every tree, plus the forest's own.

    features_per_split None means ceil(sqrt(d)) for d features.
    """

    n_trees: int = 25
    features_per_split: int | None = None
    bootstrap: bool = True

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.n_trees < 1:
            raise DataError(f"n_trees must be >= 1, got {self.n_trees}")
        if self.features_per_split is not None and self.features_per_split < 1:
            raise DataError(
                f"features_per_split must be >= 1, got {self.features_per_split}"
            )


@dataclass(frozen=True)
class ForestModel:
    trees: tuple[Tree, ...]
    params: ForestParams  # features_per_split resolved to the value used
    n_classes: int
    n_features: int
    seed: int

    def predict(self, data: "ColumnarTable | np.ndarray") -> np.ndarray:
        return predict_forest(self, data)


def fit_forest(
    train: ColumnarTable, params: ForestParams = ForestParams(), seed: int = 0
) -> ForestModel:
    """Fit params.n_trees trees on seeded bootstrap resamples.

    Per-tree seeds derive from the master seed, so each tree is a pure fit
    of its own seed, and the trees grow in worker processes through
    ``parallel_map``. Passing features_per_split = d (or disabling bootstrap
    with one tree) reduces the forest to a plain fit_tree.
    """
    X = train.feature_matrix()
    y = train.labels
    n, d = X.shape
    if n == 0 or d == 0:
        raise DataError("cannot fit a forest on an empty table")
    m = params.features_per_split or math.isqrt(d - 1) + 1
    if m > d:
        raise DataError(f"features_per_split must be in [1, {d}], got {m}")
    n_classes = train.n_classes

    def build(child: np.random.SeedSequence) -> Tree:
        rng = np.random.default_rng(child)
        if params.bootstrap:
            rows = rng.integers(0, n, size=n)
            X_fit = np.ascontiguousarray(X[rows])
            y_fit = y[rows]
        else:
            X_fit, y_fit = X, y
        return _grow_gini(X_fit, y_fit, n_classes, params, rng=rng, features_per_split=m)

    trees = parallel_map(build, np.random.SeedSequence(seed).spawn(params.n_trees))
    return ForestModel(
        trees=tuple(trees),
        params=replace(params, features_per_split=m),
        n_classes=n_classes,
        n_features=d,
        seed=seed,
    )


def predict_forest(model: ForestModel, data: "ColumnarTable | np.ndarray") -> np.ndarray:
    """Plurality vote over the trees; ties go to the lowest class id."""
    X = _as_matrix(data, model.n_features)
    votes = np.zeros((X.shape[0], model.n_classes), dtype=np.int64)
    for tree in model.trees:
        votes[np.arange(X.shape[0]), _classify(tree, X)] += 1
    return np.argmax(votes, axis=1).astype(np.int64)
