"""Boosted trees with a second-order softmax objective.

Each round fits one regression tree per class on the gradient/hessian pairs
of the multiclass cross-entropy (g = p - y, h = p(1-p)); a leaf contributes
-sum(g) / (sum(h) + lambda), scaled by the learning rate. Class scores start
at the log of each training prior, so a zero-round model predicts the prior
argmax.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dataset import ColumnarTable
from ..errors import DataError
from ..parallel import parallel_map
from .tree import Tree, _as_matrix, _candidates, _grow, _presort, _route


@dataclass(frozen=True)
class GbtParams:
    n_rounds: int = 10
    learning_rate: float = 0.3
    max_depth: int = 3
    l2_lambda: float = 1.0

    def __post_init__(self) -> None:
        if self.n_rounds < 0:
            raise DataError(f"n_rounds must be >= 0, got {self.n_rounds}")
        if not 0.0 <= self.learning_rate <= 1.0:
            raise DataError(f"learning_rate must be in [0, 1], got {self.learning_rate}")
        if self.max_depth < 1:
            raise DataError(f"max_depth must be >= 1, got {self.max_depth}")
        if not self.l2_lambda >= 0.0:
            raise DataError(f"l2_lambda must be >= 0, got {self.l2_lambda}")


@dataclass(frozen=True)
class GbtModel:
    base_score: np.ndarray
    trees: tuple[tuple[Tree, ...], ...]  # [round][class]; value = leaf weights
    params: GbtParams
    n_classes: int
    n_features: int

    def predict(self, data: "ColumnarTable | np.ndarray") -> np.ndarray:
        return predict_gbt(self, data)


def _leaf_value(g_sum: float, h_sum: float, lam: float) -> float:
    denom = h_sum + lam
    if denom <= 0.0:
        return 0.0
    return -g_sum / denom


def _split_gain_terms(
    g_sum: float | np.ndarray, h_sum: float | np.ndarray, lam: float
) -> float | np.ndarray:
    """g^2 / (h + lambda), elementwise; a non-positive denominator scores 0.

    Hessians are non-negative, so only lambda = 0 can zero a denominator;
    lambda > 0 keeps the plain quotient, which costs half the masked one.
    """
    denom = h_sum + lam
    if lam > 0.0:
        return g_sum * g_sum / denom
    denom = np.asarray(denom, dtype=np.float64)
    return np.divide(g_sum * g_sum, denom, out=np.zeros_like(denom), where=denom > 0.0)


def _gradient_split(
    X: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    rows: np.ndarray,
    order: np.ndarray,
    lam: float,
) -> tuple[int, float] | None:
    """(feature, threshold) of the best positive-gain split of a node, or
    None; ties keep the lowest feature, then the lowest threshold.

    ``rows`` are the node's rows in row-id order, ``order[f]`` the same rows
    sorted by (value of feature f, row id).
    """
    g_total = float(g[rows].sum())
    h_total = float(h[rows].sum())
    parent_term = _split_gain_terms(g_total, h_total, lam)

    best_gain = 0.0
    best: tuple[int, float] | None = None
    for feature in range(X.shape[1]):
        o = order[feature]
        mid, boundary = _candidates(X[o, feature])
        if not boundary.any():
            continue
        gl = np.cumsum(g[o])[:-1][boundary]
        hl = np.cumsum(h[o])[:-1][boundary]
        gr = g_total - gl
        hr = h_total - hl
        gains = (
            _split_gain_terms(gl, hl, lam)
            + _split_gain_terms(gr, hr, lam)
            - parent_term
        ) * 0.5
        j = int(np.argmax(gains))
        gain = float(gains[j])
        if gain > best_gain:
            best_gain = gain
            best = (feature, float(mid[boundary][j]))
    return best


def _grow_gradient(
    X: np.ndarray,
    order: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    max_depth: int,
    lam: float,
) -> Tree:
    """Grow one boosting tree on per-row gradients g and hessians h, given
    ``_presort(X)``."""

    def leaf_weight(rows: np.ndarray) -> float:
        return _leaf_value(float(g[rows].sum()), float(h[rows].sum()), lam)

    def find_split(
        weight: float, rows: np.ndarray, order: np.ndarray, depth: int, path: tuple
    ) -> tuple[int, float] | None:
        if depth >= max_depth or rows.size < 2:
            return None
        return _gradient_split(X, g, h, rows, order, lam)

    return _grow(X, order, leaf_weight, find_split)


def _softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def fit_gbt(train: ColumnarTable, params: GbtParams = GbtParams()) -> GbtModel:
    """Boost n_rounds rounds, one regression tree per class per round.

    A round's class trees depend only on the probabilities it starts from,
    so they grow in worker processes through ``parallel_map``; their scores
    are then added in class order.
    """
    X, y, n_classes = train.feature_matrix(), train.labels, train.n_classes
    n = X.shape[0]
    if n == 0:
        raise DataError("cannot fit on zero rows")

    counts = np.bincount(y, minlength=n_classes).astype(np.float64)
    # log prior; a zero-count class is floored at one count to stay finite
    base = np.log(np.maximum(counts, 1.0) / n)

    scores = np.tile(base, (n, 1))
    order = _presort(X)  # shared by every tree
    rounds: list[tuple[Tree, ...]] = []
    for _ in range(params.n_rounds):
        probs = _softmax(scores)

        def class_tree(k: int) -> Tree:
            g = probs[:, k] - (y == k)
            h = probs[:, k] * (1.0 - probs[:, k])
            return _grow_gradient(X, order, g, h, params.max_depth, params.l2_lambda)

        round_trees = parallel_map(class_tree, range(n_classes))
        for k, tree in enumerate(round_trees):
            scores[:, k] += params.learning_rate * tree.value[_route(tree, X)]
        rounds.append(tuple(round_trees))
    return GbtModel(
        base_score=base,
        trees=tuple(rounds),
        params=params,
        n_classes=n_classes,
        n_features=X.shape[1],
    )


def predict_scores(model: GbtModel, data: "ColumnarTable | np.ndarray") -> np.ndarray:
    """(n_rows, n_classes) additive scores: base + lr * tree outputs."""
    X = _as_matrix(data, model.n_features)
    scores = np.tile(model.base_score, (X.shape[0], 1))
    for round_trees in model.trees:
        for k, tree in enumerate(round_trees):
            scores[:, k] += model.params.learning_rate * tree.value[_route(tree, X)]
    return scores


def predict_gbt(model: GbtModel, data: "ColumnarTable | np.ndarray") -> np.ndarray:
    """Argmax of the class scores (lowest class id on ties)."""
    return np.argmax(predict_scores(model, data), axis=1).astype(np.int64)
