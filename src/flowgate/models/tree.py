"""Classification tree grown by exhaustive gini split search.

Split candidates are the midpoints of consecutive distinct sorted feature
values; rows with value <= threshold route left. The candidate maximizing the
weighted impurity decrease wins; ties break to the lowest feature index, then
the lowest threshold. The winner among near-tied candidates is decided with
exact integer arithmetic so the choice matches a brute-force enumeration
bit for bit at any sample size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..dataset import ColumnarTable
from ..errors import DataError

CRITERION_GINI = "gini"


@dataclass(frozen=True)
class TreeHyperparams:
    """Growth limits and pruning strength.

    max_depth None means unbounded. min_samples_leaf may not exceed
    min_samples_split, otherwise the split-size gate would be unreachable.
    """

    max_depth: int | None = None
    min_samples_split: int = 2
    min_samples_leaf: int = 1
    ccp_alpha: float = 0.0
    criterion: str = CRITERION_GINI
    seed: int = 0

    def __post_init__(self) -> None:
        if self.criterion != CRITERION_GINI:
            raise DataError(f"unsupported criterion {self.criterion!r}")
        if self.max_depth is not None and self.max_depth < 1:
            raise DataError(f"max_depth must be >= 1 or None, got {self.max_depth}")
        if self.min_samples_split < 2:
            raise DataError(f"min_samples_split must be >= 2, got {self.min_samples_split}")
        if self.min_samples_leaf < 1:
            raise DataError(f"min_samples_leaf must be >= 1, got {self.min_samples_leaf}")
        if self.min_samples_leaf > self.min_samples_split:
            raise DataError(
                "min_samples_leaf must not exceed min_samples_split "
                f"({self.min_samples_leaf} > {self.min_samples_split})"
            )
        if not self.ccp_alpha >= 0.0:
            raise DataError(f"ccp_alpha must be >= 0, got {self.ccp_alpha}")


class TreeNode:
    """Binary tree node; every node keeps its class-count vector."""

    __slots__ = ("feature", "threshold", "left", "right", "counts")

    def __init__(
        self,
        counts: np.ndarray,
        feature: int | None = None,
        threshold: float | None = None,
        left: "TreeNode | None" = None,
        right: "TreeNode | None" = None,
    ) -> None:
        self.counts = np.asarray(counts, dtype=np.int64)
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right

    @property
    def is_leaf(self) -> bool:
        return self.feature is None

    @property
    def prediction(self) -> int:
        # argmax returns the first maximum, i.e. the lowest class id on ties
        return int(np.argmax(self.counts))

    @property
    def n_rows(self) -> int:
        return int(self.counts.sum())

    def depth(self) -> int:
        if self.is_leaf:
            return 0
        return 1 + max(self.left.depth(), self.right.depth())

    def n_leaves(self) -> int:
        if self.is_leaf:
            return 1
        return self.left.n_leaves() + self.right.n_leaves()


@dataclass(frozen=True)
class DecisionTreeModel:
    root: TreeNode
    params: TreeHyperparams
    n_classes: int
    n_features: int

    def predict(self, data: "ColumnarTable | np.ndarray") -> np.ndarray:
        return predict_tree(self, data)


def gini_impurity(class_counts: Sequence[int] | np.ndarray) -> float:
    """1 - sum of squared class proportions."""
    counts = np.asarray(class_counts, dtype=np.int64)
    if counts.ndim != 1 or counts.size == 0:
        raise DataError("class counts must be a non-empty vector")
    if np.any(counts < 0):
        raise DataError("class counts must be non-negative")
    total = int(counts.sum())
    if total == 0:
        raise DataError("all class counts are zero")
    sq = float((counts.astype(np.float64) ** 2).sum())
    return 1.0 - sq / (float(total) * float(total))


def _as_matrix(data: "ColumnarTable | np.ndarray") -> np.ndarray:
    if isinstance(data, np.ndarray):
        if data.ndim != 2:
            raise DataError("feature matrix must be 2-D")
        return np.ascontiguousarray(data, dtype=np.float64)
    return data.feature_matrix()


@dataclass(frozen=True)
class _Candidate:
    feature: int
    threshold: float
    n_left: int
    sum_left_sq: int
    sum_right_sq: int


def _node_split(
    X: np.ndarray,
    y: np.ndarray,
    rows: np.ndarray,
    n_classes: int,
    min_samples_leaf: int,
    feature_ids: np.ndarray,
) -> tuple[int, float, float] | None:
    """Best legal split of `rows`, or None when no split strictly improves.

    Returns (feature index, threshold, impurity decrease).
    """
    n = int(rows.size)
    y_node = y[rows]
    counts = np.bincount(y_node, minlength=n_classes)
    sum_sq_parent = int((counts.astype(np.int64) ** 2).sum())

    best_score = -np.inf
    candidates: list[_Candidate] = []

    def consider(feature: int, values: np.ndarray) -> None:
        nonlocal best_score
        order = np.argsort(values, kind="stable")
        vs = values[order]
        ys = y_node[order]
        if vs[0] == vs[-1]:
            return
        boundary = vs[1:] != vs[:-1]
        n_left = np.arange(1, n)
        legal = boundary & (n_left >= min_samples_leaf) & (n - n_left >= min_samples_leaf)
        if not legal.any():
            return
        onehot = np.zeros((n, n_classes), dtype=np.int64)
        onehot[np.arange(n), ys] = 1
        cum = np.cumsum(onehot, axis=0)
        idx = np.flatnonzero(legal)
        cum_left = cum[idx]
        nl = (idx + 1).astype(np.float64)
        nr = float(n) - nl
        sum_left_sq = (cum_left.astype(np.float64) ** 2).sum(axis=1)
        right = counts[np.newaxis, :] - cum_left
        sum_right_sq = (right.astype(np.float64) ** 2).sum(axis=1)
        scores = sum_left_sq / nl + sum_right_sq / nr
        feature_best = float(scores.max())
        if feature_best > best_score:
            best_score = feature_best
        tol = 1e-9 * max(1.0, feature_best)
        near = np.flatnonzero(scores >= feature_best - tol)
        for j in near:
            i = int(idx[j])
            lo = float(vs[i])
            hi = float(vs[i + 1])
            mid = (lo + hi) / 2.0
            if not mid < hi:
                # adjacent representable values: the midpoint cannot separate
                continue
            left_counts = cum[i]
            candidates.append(
                _Candidate(
                    feature=feature,
                    threshold=mid,
                    n_left=i + 1,
                    sum_left_sq=int((left_counts.astype(object) ** 2).sum()),
                    sum_right_sq=int(
                        ((counts - left_counts).astype(object) ** 2).sum()
                    ),
                )
            )

    for feature in np.sort(feature_ids):
        consider(int(feature), X[rows, feature])

    if not candidates:
        return None

    # Exact selection among near-tied candidates. score(c) = L2/nl + R2/nr;
    # comparing a/b vs c/d exactly via cross-multiplication of Python ints.
    def exact_key(c: _Candidate) -> tuple[int, int]:
        nl = c.n_left
        nr = n - nl
        return (c.sum_left_sq * nr + c.sum_right_sq * nl, nl * nr)

    best: _Candidate | None = None
    best_num = best_den = 0
    window = 1e-9 * max(1.0, best_score)
    for cand in candidates:
        num, den = exact_key(cand)
        approx = (cand.sum_left_sq / (cand.n_left) + cand.sum_right_sq / (n - cand.n_left))
        if approx < best_score - window:
            continue
        if best is None:
            best, best_num, best_den = cand, num, den
            continue
        lhs = num * best_den
        rhs = best_num * den
        if lhs > rhs:
            best, best_num, best_den = cand, num, den
        elif lhs == rhs:
            if (cand.feature, cand.threshold) < (best.feature, best.threshold):
                best, best_num, best_den = cand, num, den
    if best is None:
        return None

    # Strict improvement: score > sum_sq_parent / n, exactly.
    if best_num * n <= sum_sq_parent * best_den:
        return None

    nl = best.n_left
    nr = n - nl
    gini_parent = 1.0 - sum_sq_parent / (float(n) * float(n))
    gini_left = 1.0 - best.sum_left_sq / (float(nl) * float(nl))
    gini_right = 1.0 - best.sum_right_sq / (float(nr) * float(nr))
    decrease = gini_parent - (nl / n) * gini_left - (nr / n) * gini_right
    return best.feature, best.threshold, float(decrease)


def best_split(
    rows: np.ndarray,
    table: "ColumnarTable | np.ndarray",
    params: TreeHyperparams = TreeHyperparams(),
    labels: np.ndarray | None = None,
) -> tuple[int, float, float] | None:
    """Best (feature, threshold, impurity decrease) over the given row ids.

    ``table`` is a ColumnarTable, or a feature matrix with ``labels`` given
    separately. Returns None when no legal split strictly improves impurity.
    """
    X = _as_matrix(table)
    if labels is None:
        if isinstance(table, np.ndarray):
            raise DataError("labels are required when passing a bare matrix")
        y = table.labels
        n_classes = table.n_classes
    else:
        y = np.asarray(labels, dtype=np.int64)
        n_classes = int(y.max()) + 1 if y.size else 1
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        raise DataError("cannot split an empty row set")
    return _node_split(
        X, y, rows, n_classes, params.min_samples_leaf, np.arange(X.shape[1])
    )


def _grow(
    X: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    params: TreeHyperparams,
    rng: np.random.Generator | None = None,
    features_per_split: int | None = None,
) -> TreeNode:
    n_features = X.shape[1]
    sample_features = (
        features_per_split is not None and features_per_split < n_features
    )
    root_rows = np.arange(X.shape[0], dtype=np.int64)
    root = TreeNode(np.bincount(y, minlength=n_classes))
    stack: list[tuple[TreeNode, np.ndarray, int]] = [(root, root_rows, 0)]
    while stack:
        node, rows, depth = stack.pop()
        counts = node.counts
        if (
            int(np.count_nonzero(counts)) <= 1
            or (params.max_depth is not None and depth >= params.max_depth)
            or rows.size < params.min_samples_split
        ):
            continue
        if sample_features:
            feature_ids = rng.choice(n_features, size=features_per_split, replace=False)
        else:
            feature_ids = np.arange(n_features)
        found = _node_split(
            X, y, rows, n_classes, params.min_samples_leaf, feature_ids
        )
        if found is None:
            continue
        feature, threshold, _ = found
        mask = X[rows, feature] <= threshold
        left_rows = rows[mask]
        right_rows = rows[~mask]
        node.feature = feature
        node.threshold = threshold
        node.left = TreeNode(np.bincount(y[left_rows], minlength=n_classes))
        node.right = TreeNode(np.bincount(y[right_rows], minlength=n_classes))
        # LIFO: push right first so the left child is grown first (preorder),
        # which pins down the rng stream used for feature sampling.
        stack.append((node.right, right_rows, depth + 1))
        stack.append((node.left, left_rows, depth + 1))
    return root


def _collect_internal(root: TreeNode) -> list[TreeNode]:
    out = []
    stack = [root]
    while stack:
        node = stack.pop()
        if not node.is_leaf:
            out.append(node)
            stack.append(node.left)
            stack.append(node.right)
    return out


def _subtree_leaf_stats(node: TreeNode, n_total: int) -> tuple[float, int]:
    """(sum of leaf gini * weight, leaf count) under `node`."""
    if node.is_leaf:
        return gini_impurity(node.counts) * (node.n_rows / n_total), 1
    left_r, left_l = _subtree_leaf_stats(node.left, n_total)
    right_r, right_l = _subtree_leaf_stats(node.right, n_total)
    return left_r + right_r, left_l + right_l


def _prune(root: TreeNode, ccp_alpha: float) -> None:
    """Minimal cost-complexity pruning: repeatedly collapse the weakest link
    while its impurity improvement per removed leaf is <= ccp_alpha."""
    n_total = root.n_rows
    while not root.is_leaf:
        weakest: list[TreeNode] = []
        weakest_g = np.inf
        for node in _collect_internal(root):
            r_subtree, leaves = _subtree_leaf_stats(node, n_total)
            r_node = gini_impurity(node.counts) * (node.n_rows / n_total)
            g = (r_node - r_subtree) / (leaves - 1)
            if g < weakest_g:
                weakest_g = g
                weakest = [node]
            elif g == weakest_g:
                weakest.append(node)
        if weakest_g > ccp_alpha:
            break
        for node in weakest:
            node.feature = None
            node.threshold = None
            node.left = None
            node.right = None


def fit_tree(
    train: "ColumnarTable | np.ndarray",
    params: TreeHyperparams = TreeHyperparams(),
    labels: np.ndarray | None = None,
) -> DecisionTreeModel:
    """Grow (and optionally prune) a classification tree.

    Growth stops at a node when it is pure, max_depth is reached, it holds
    fewer than min_samples_split rows, or no legal split strictly improves
    impurity. With ccp_alpha > 0 the fitted tree is post-pruned.
    """
    X = _as_matrix(train)
    if labels is None:
        if isinstance(train, np.ndarray):
            raise DataError("labels are required when passing a bare matrix")
        y = train.labels
        n_classes = train.n_classes
    else:
        y = np.asarray(labels, dtype=np.int64)
        n_classes = int(y.max()) + 1 if y.size else 1
    if X.shape[0] == 0:
        raise DataError("cannot fit a tree on zero rows")
    if X.shape[1] == 0:
        raise DataError("cannot fit a tree without features")
    root = _grow(X, y, n_classes, params)
    if params.ccp_alpha > 0.0:
        _prune(root, params.ccp_alpha)
    return DecisionTreeModel(root, params, n_classes, X.shape[1])


def _route_and_assign(
    root: TreeNode,
    X: np.ndarray,
    out: np.ndarray,
    max_depth: int | None = None,
    min_samples_split: int | None = None,
) -> None:
    """Write each row's predicted class into ``out``.

    A row stops at the first leaf, or at the first node at depth >= max_depth
    or holding fewer than min_samples_split training rows; None cuts nothing.
    Split choice depends only on a node's rows and min_samples_leaf, so an
    unpruned tree grown with no depth limit and a split gate no larger than
    min_samples_split, cut this way, predicts exactly like the tree grown with
    these limits and the same min_samples_leaf.
    """
    stack: list[tuple[TreeNode, np.ndarray, int]] = [(root, np.arange(X.shape[0]), 0)]
    while stack:
        node, rows, depth = stack.pop()
        if rows.size == 0:
            continue
        if (
            node.is_leaf
            or (max_depth is not None and depth >= max_depth)
            or (min_samples_split is not None and node.n_rows < min_samples_split)
        ):
            out[rows] = node.prediction
            continue
        mask = X[rows, node.feature] <= node.threshold
        stack.append((node.left, rows[mask], depth + 1))
        stack.append((node.right, rows[~mask], depth + 1))


def predict_tree(model: DecisionTreeModel, data: "ColumnarTable | np.ndarray") -> np.ndarray:
    """Route rows to leaves; each leaf votes its class-count argmax (lowest
    class id on ties)."""
    X = _as_matrix(data)
    if X.shape[1] != model.n_features:
        raise DataError(
            f"model expects {model.n_features} features, got {X.shape[1]}"
        )
    out = np.empty(X.shape[0], dtype=np.int64)
    _route_and_assign(model.root, X, out)
    return out
