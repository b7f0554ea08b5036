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
from .tree import _as_matrix


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


class RegressionNode:
    """Node of a gradient-fitting tree; leaves carry an additive weight."""

    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(
        self,
        value: float = 0.0,
        feature: int | None = None,
        threshold: float | None = None,
        left: "RegressionNode | None" = None,
        right: "RegressionNode | None" = None,
    ) -> None:
        self.value = value
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


@dataclass(frozen=True)
class GbtModel:
    base_score: np.ndarray
    trees: tuple[tuple[RegressionNode, ...], ...]  # [round][class]
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


def _grow_regression(
    X: np.ndarray, g: np.ndarray, h: np.ndarray, max_depth: int, lam: float
) -> RegressionNode:
    root = RegressionNode(value=_leaf_value(float(g.sum()), float(h.sum()), lam))
    stack: list[tuple[RegressionNode, np.ndarray, int]] = [
        (root, np.arange(X.shape[0], dtype=np.int64), 0)
    ]
    n_features = X.shape[1]
    while stack:
        node, rows, depth = stack.pop()
        if depth >= max_depth or rows.size < 2:
            continue
        g_node = g[rows]
        h_node = h[rows]
        g_total = float(g_node.sum())
        h_total = float(h_node.sum())
        parent_term = _split_gain_terms(g_total, h_total, lam)

        best_gain = 0.0
        best: tuple[int, float] | None = None
        for feature in range(n_features):
            values = X[rows, feature]
            order = np.argsort(values, kind="stable")
            vs = values[order]
            if vs[0] == vs[-1]:
                continue
            g_cum = np.cumsum(g_node[order])[:-1]
            h_cum = np.cumsum(h_node[order])[:-1]
            boundary = vs[1:] != vs[:-1]
            if not boundary.any():
                continue
            gl = g_cum[boundary]
            hl = h_cum[boundary]
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
                pos = np.flatnonzero(boundary)[j]
                lo = float(vs[pos])
                hi = float(vs[pos + 1])
                mid = (lo + hi) / 2.0
                if mid < hi:
                    best_gain = gain
                    best = (feature, mid)
        if best is None:
            continue
        feature, threshold = best
        mask = X[rows, feature] <= threshold
        left_rows = rows[mask]
        right_rows = rows[~mask]
        node.feature = feature
        node.threshold = threshold
        node.left = RegressionNode(
            value=_leaf_value(float(g[left_rows].sum()), float(h[left_rows].sum()), lam)
        )
        node.right = RegressionNode(
            value=_leaf_value(float(g[right_rows].sum()), float(h[right_rows].sum()), lam)
        )
        stack.append((node.right, right_rows, depth + 1))
        stack.append((node.left, left_rows, depth + 1))
    return root


def _tree_output(root: RegressionNode, X: np.ndarray) -> np.ndarray:
    out = np.empty(X.shape[0], dtype=np.float64)
    stack: list[tuple[RegressionNode, np.ndarray]] = [
        (root, np.arange(X.shape[0], dtype=np.int64))
    ]
    while stack:
        node, rows = stack.pop()
        if rows.size == 0:
            continue
        if node.is_leaf:
            out[rows] = node.value
            continue
        mask = X[rows, node.feature] <= node.threshold
        stack.append((node.left, rows[mask]))
        stack.append((node.right, rows[~mask]))
    return out


def _softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def fit_gbt(
    train: "ColumnarTable | np.ndarray",
    params: GbtParams = GbtParams(),
    labels: np.ndarray | None = None,
) -> GbtModel:
    """Boost n_rounds rounds, one regression tree per class per round."""
    X = _as_matrix(train)
    if labels is None:
        if isinstance(train, np.ndarray):
            raise DataError("labels are required when passing a bare matrix")
        y = train.labels
        n_classes = train.n_classes
    else:
        y = np.asarray(labels, dtype=np.int64)
        n_classes = int(y.max()) + 1 if y.size else 1
    n = X.shape[0]
    if n == 0:
        raise DataError("cannot fit on zero rows")

    counts = np.bincount(y, minlength=n_classes).astype(np.float64)
    # log prior; a zero-count class is floored at one count to stay finite
    base = np.log(np.maximum(counts, 1.0) / n)
    onehot = np.zeros((n, n_classes), dtype=np.float64)
    onehot[np.arange(n), y] = 1.0

    scores = np.tile(base, (n, 1))
    rounds: list[tuple[RegressionNode, ...]] = []
    for _ in range(params.n_rounds):
        probs = _softmax(scores)
        round_trees: list[RegressionNode] = []
        for k in range(n_classes):
            g = probs[:, k] - onehot[:, k]
            h = probs[:, k] * (1.0 - probs[:, k])
            tree = _grow_regression(X, g, h, params.max_depth, params.l2_lambda)
            round_trees.append(tree)
            scores[:, k] += params.learning_rate * _tree_output(tree, X)
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
    X = _as_matrix(data)
    if X.shape[1] != model.n_features:
        raise DataError(f"model expects {model.n_features} features, got {X.shape[1]}")
    scores = np.tile(model.base_score, (X.shape[0], 1))
    for round_trees in model.trees:
        for k, tree in enumerate(round_trees):
            scores[:, k] += model.params.learning_rate * _tree_output(tree, X)
    return scores


def predict_gbt(model: GbtModel, data: "ColumnarTable | np.ndarray") -> np.ndarray:
    """Argmax of the class scores (lowest class id on ties)."""
    return np.argmax(predict_scores(model, data), axis=1).astype(np.int64)
