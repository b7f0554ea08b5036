"""Binary threshold trees: the one tree class, grow loop and router shared by
the classification tree, the forest and boosting, plus the gini split search.

Split candidates are the midpoints of consecutive distinct sorted feature
values; rows with value <= threshold route left. A midpoint that rounds up
onto the upper value (two adjacent doubles) cannot split and is no candidate.
The candidate maximizing the weighted impurity decrease wins; ties break to
the lowest feature index, then the lowest threshold. The winner among
near-tied candidates is decided with exact integer arithmetic so the choice
matches a brute-force enumeration bit for bit at any sample size.

Cost: a fit sorts each feature once, with one stable argsort per feature.
Each node then holds, per feature, its rows in (value, row id) order, and a
split partitions those lists stably with one go-left mask, so a node costs a
stable partition and one O(n) scan per feature and never sorts values. The
gini scan keeps each side's sum of squared class counts as running int64
sums: a row whose class already has r rows on the left adds 2r + 1 to the
left sum, and the right sum follows from the left one and a running sum of
the rows' class totals (r comes from a stable sort of the small class ids,
a linear-time radix sort). While below 2**53, which holds for any node of
fewer than about 9e7 rows, these integers equal the float square sums a
per-class count matrix gives, so the near-tie window and the exact
comparison see the same numbers and the search stays exact.

Template growth: a node's split depends only on its rows and the leaf size,
so a fit can copy splits from a template, an unpruned gini tree grown on
the same feature matrix with no depth limit, a split gate s' <= s and a
leaf size l' <= l. Walking down from the root while it copies, each node
holds the same rows as its template node. After the fit's own depth and
split-gate checks, a template leaf is a leaf of the fit too: the node is
pure, or n < s' <= s, or n < 2l' <= 2l, or no split strictly improves in
the wider window of legal boundaries and so none does in the narrower one.
A template split whose two children both hold at least l rows is the
exact argmax over a superset of the fit's window, so it is the fit's own
best split, exact ties included (the lowest (feature, threshold) among the
ties is already the template's). Any other node is searched, and the
subtree below it grows without the template.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from ..dataset import ColumnarTable
from ..errors import DataError


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

    def __post_init__(self) -> None:
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


class Tree:
    """Binary threshold tree as node arrays in preorder.

    ``value[i]`` is node i's payload: its class-count vector in a gini tree
    (a row of an int matrix), its additive leaf weight in a boosting tree.
    ``feature[i]`` is the split feature, -1 at a leaf; rows with value <=
    ``threshold[i]`` route left. Node 0 is the root, an internal node's left
    child is the next node and its right child follows the left subtree.
    ``right`` (-1 at a leaf) and ``node_depth`` are derived from that layout.
    """

    __slots__ = ("value", "feature", "threshold", "right", "node_depth")

    def __init__(self, value: np.ndarray, feature: np.ndarray, threshold: np.ndarray) -> None:
        self.value = np.asarray(value)
        self.feature = np.asarray(feature, dtype=np.int64)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        n = self.feature.size
        self.right = np.full(n, -1, dtype=np.int64)
        self.node_depth = np.zeros(n, dtype=np.int64)
        # open child slots (parent of a right child or -1, depth); the next
        # preorder node fills the top one
        slots: list[tuple[int, int]] = [(-1, 0)]
        for node in range(n):
            if not slots:
                raise DataError("tree arrays are not one preorder tree")
            parent, depth = slots.pop()
            if parent >= 0:
                self.right[parent] = node
            self.node_depth[node] = depth
            if self.feature[node] >= 0:
                slots.append((node, depth + 1))
                slots.append((-1, depth + 1))  # the left child is the next node
        if slots or len(self.value) != n or self.threshold.size != n:
            raise DataError("tree arrays are not one preorder tree")

    def depth(self) -> int:
        return int(self.node_depth.max())

    def n_leaves(self) -> int:
        return int(np.count_nonzero(self.feature < 0))


@dataclass(frozen=True)
class DecisionTreeModel:
    root: Tree
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


def _as_matrix(
    data: "ColumnarTable | np.ndarray", n_features: int | None = None
) -> np.ndarray:
    """Feature matrix of a table or a bare matrix; a model passes the
    ``n_features`` it was fitted on."""
    if isinstance(data, np.ndarray):
        if data.ndim != 2:
            raise DataError("feature matrix must be 2-D")
        X = np.ascontiguousarray(data, dtype=np.float64)
    else:
        X = data.feature_matrix()
    if n_features is not None and X.shape[1] != n_features:
        raise DataError(f"model expects {n_features} features, got {X.shape[1]}")
    return X


def _as_training_set(
    data: "ColumnarTable | np.ndarray", labels: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, int]:
    """(feature matrix, labels, class count) of a table, or of a bare matrix
    with ``labels`` given separately."""
    X = _as_matrix(data)
    if labels is None:
        if isinstance(data, np.ndarray):
            raise DataError("labels are required when passing a bare matrix")
        return X, data.labels, data.n_classes
    y = np.asarray(labels, dtype=np.int64)
    return X, y, int(y.max()) + 1 if y.size else 1


def _presort(X: np.ndarray) -> np.ndarray:
    """Row ids of each feature column in (value, row id) order, as an
    (n_features, n_rows) array: the one sort a fit makes."""
    return np.ascontiguousarray(np.argsort(X, axis=0, kind="stable").T)


def _class_ids(y: np.ndarray, n_classes: int) -> np.ndarray:
    """Labels in the smallest unsigned dtype holding every class id, on which
    numpy's stable sort is a linear-time radix sort."""
    return y.astype(np.min_scalar_type(max(n_classes - 1, 0)))


@dataclass(frozen=True)
class _Candidate:
    feature: int
    threshold: float
    n_left: int
    sum_left_sq: int
    sum_right_sq: int


# A node scans its features together, up to about this many sorted values per
# scan: a small node takes one set of numpy calls for all of its features,
# while a big node's scan temporaries stay the size of a few feature columns.
# At 2^16 values a temporary of a node below 2^16 rows is at most 512 KB.
# glibc's malloc maps blocks above its dynamic mmap threshold afresh, and
# faults their pages in again, for every node; the threshold rises only as
# the process frees large blocks, so bigger scans made fit speed depend on
# what ran before (at 2^18, a gate-6 tuning run faulted 163k pages, not 69k).
_SCAN_CELLS = 1 << 16


def _gini_scan(
    X: np.ndarray,
    y: np.ndarray,
    counts: np.ndarray,
    sum_sq: int,
    order: np.ndarray,
    features: np.ndarray,
    lo: int,
    hi: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Score, midpoint and left/right square sums of the class counts at the
    boundaries after sorted rows lo..hi-1 of each feature in ``features``
    (one row per feature); the score is -inf where the boundary cannot split.
    ``sum_sq`` is the square sum of the node's class ``counts``.
    """
    n = order.shape[1]
    sorted_rows = order[features]
    values = X[sorted_rows, features[:, np.newaxis]]
    upper = values[:, lo + 1 : hi + 1]
    mid = (values[:, lo:hi] + upper) / 2.0
    # Square sums in exact integers. Adding a row whose class already has r
    # rows on the left raises the left sum by 2r + 1; r is the row's place
    # among its class in a stable class sort. The right sum is
    # sum_c (N_c - L_c)^2 = sum N^2 - 2 sum_c N_c L_c + sum L^2, where
    # sum_c N_c L_c runs over the rows as a sum of N of each class.
    classes = y[sorted_rows]
    class_rank = np.arange(n) - np.repeat(np.cumsum(counts) - counts, counts)
    steps = np.empty_like(sorted_rows)
    np.put_along_axis(
        steps, np.argsort(classes, axis=1, kind="stable"), 2 * class_rank + 1, axis=1
    )
    sum_left_sq = np.cumsum(steps, axis=1)[:, lo:hi]
    sum_right_sq = (
        sum_sq - 2 * np.cumsum(counts[classes], axis=1)[:, lo:hi] + sum_left_sq
    )
    nl = np.arange(lo + 1, hi + 1, dtype=np.float64)
    # a boundary can split when the midpoint of its two values lies below
    # the upper one: equal values and adjacent doubles cannot
    scores = np.where(
        mid < upper, sum_left_sq / nl + sum_right_sq / (float(n) - nl), -np.inf
    )
    return scores, mid, sum_left_sq, sum_right_sq


def _node_split(
    X: np.ndarray,
    y: np.ndarray,
    counts: np.ndarray,
    order: np.ndarray,
    min_samples_leaf: int,
    feature_ids: np.ndarray,
) -> tuple[int, float, float] | None:
    """Best legal split of a node, or None when no split strictly improves.

    ``counts`` is the node's class-count vector and ``order[f]`` its rows
    sorted by (value of feature f, row id); ``y`` holds class ids as
    ``_class_ids`` gives them. Returns (feature index, threshold, impurity
    decrease).
    """
    n = int(order.shape[1])
    # a boundary after sorted row i splits off rows 0..i; rows lo..hi-1 end
    # a left side of legal size
    lo, hi = min_samples_leaf - 1, n - min_samples_leaf
    if lo >= hi:
        return None
    counts = counts.astype(np.int64)
    sum_sq_parent = int((counts**2).sum())
    features = np.sort(feature_ids)
    per_scan = max(1, _SCAN_CELLS // n)
    candidates: list[_Candidate] = []
    for first in range(0, features.size, per_scan):
        scanned = features[first : first + per_scan]
        scores, mid, sum_left_sq, sum_right_sq = _gini_scan(
            X, y, counts, sum_sq_parent, order, scanned, lo, hi
        )
        scan_best = float(scores.max())
        if scan_best == -np.inf:
            continue
        # float scores round the exact ones, so every boundary that may be
        # exactly best lies within this window of the float best
        near = scores >= scan_best - 1e-9 * max(1.0, scan_best)
        for f, j in zip(*np.nonzero(near)):
            candidates.append(
                _Candidate(
                    feature=int(scanned[f]),
                    threshold=float(mid[f, j]),
                    n_left=lo + int(j) + 1,
                    sum_left_sq=int(sum_left_sq[f, j]),
                    sum_right_sq=int(sum_right_sq[f, j]),
                )
            )
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
    for cand in candidates:
        num, den = exact_key(cand)
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
    X, y, n_classes = _as_training_set(table, labels)
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        raise DataError("cannot split an empty row set")
    X_node = X[rows]
    y_node = y[rows]
    return _node_split(
        X_node,
        _class_ids(y_node, n_classes),
        np.bincount(y_node, minlength=n_classes),
        _presort(X_node),
        params.min_samples_leaf,
        np.arange(X.shape[1]),
    )


def _subtree_end(tree: Tree) -> np.ndarray:
    """One past the last node of each node's subtree."""
    end = np.arange(1, tree.feature.size + 1)
    for node in np.flatnonzero(tree.feature >= 0)[::-1]:
        end[node] = end[tree.right[node]]
    return end


def _grow(
    X: np.ndarray,
    order: np.ndarray | None,
    payload: Callable[[np.ndarray], Any],
    find_split: Callable[[Any, np.ndarray, np.ndarray, int], tuple[int, float] | None],
    template: Tree | None = None,
    copies: np.ndarray | None = None,
) -> Tree:
    """Grow a threshold tree over all rows of ``X``, given ``_presort(X)``
    (None sorts here, when a node needs it).

    Each node holds its rows in row-id order and, for every feature f, the
    segment ``order[f]`` of its rows, sorted by (value, row id). A split
    partitions both stably with one go-left mask over row ids, so every
    segment stays sorted and no node sorts again. ``payload(rows)`` gives a
    node's value; ``find_split(value, rows, order, depth)`` gives the node's
    (feature, threshold), or None to leave it a leaf. Nodes are appended and
    split in preorder, left child first, which pins down the order of any
    random draws ``find_split`` makes.

    A ``template`` is a tree grown on the same rows whose nodes marked in
    ``copies`` this growth reproduces unchanged: a marked leaf stays a leaf,
    a marked split is made again. Each node carries the template node with
    the same rows, starting at the root and -1 once growth leaves the
    template; such a node takes the template node's value, and a marked one
    skips ``find_split``. Below a node that ``find_split`` decides, growth
    is off the template. A template subtree marked throughout is taken as
    one preorder slice, without partitioning its rows.
    """
    if template is not None:
        end = _subtree_end(template)
        unmarked = np.concatenate(([0], np.cumsum(~copies)))  # before each node
        whole = unmarked[end] == unmarked[:-1]
        if whole[0]:
            return template
    n_features = X.shape[1]
    go_left = np.zeros(X.shape[0], dtype=bool)
    nodes: list[tuple[Any, int, float]] = []
    rows = np.arange(X.shape[0], dtype=np.int64)
    order = _presort(X) if order is None else order
    stack = [(rows, order, 0, -1 if template is None else 0)]
    while stack:
        rows, order, depth, at = stack.pop()
        if at >= 0 and whole[at]:
            taken = slice(at, end[at])
            nodes.extend(
                zip(template.value[taken], template.feature[taken], template.threshold[taken])
            )
            continue
        if at >= 0 and copies[at]:
            value = template.value[at]
            found = int(template.feature[at]), float(template.threshold[at])
            left_at, right_at = at + 1, int(template.right[at])
        else:
            value = payload(rows) if at < 0 else template.value[at]
            found = find_split(value, rows, order, depth)
            left_at = right_at = -1
        feature, threshold = (-1, np.nan) if found is None else found
        nodes.append((value, feature, threshold))
        if found is not None:
            left = X[rows, feature] <= threshold
            go_left[rows] = left
            in_left = go_left[order].ravel()
            flat = order.ravel()
            # LIFO: push right first so the left child is split first
            for side, in_side, side_at in (
                (~left, ~in_left, right_at),
                (left, in_left, left_at),
            ):
                segments = np.compress(in_side, flat).reshape(n_features, -1)
                stack.append((rows[side], segments, depth + 1, side_at))
    values, features, thresholds = zip(*nodes)
    return Tree(np.asarray(values), features, thresholds)


def _grow_gini(
    X: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    params: TreeHyperparams,
    rng: np.random.Generator | None = None,
    features_per_split: int | None = None,
    order: np.ndarray | None = None,
    template: Tree | None = None,
) -> Tree:
    """Grow a classification tree, then prune it when ``params.ccp_alpha`` >
    0; with ``features_per_split`` below the feature count, each split
    searches a fresh ``rng`` sample of features. ``order`` is ``_presort(X)``
    when the caller already has it. A ``template`` (searched on every
    feature) is a gini tree on the same rows that ``_template_applies`` to
    ``params``; growth copies the splits ``_template_copies`` marks."""
    n_features = X.shape[1]
    sample_features = (
        features_per_split is not None and features_per_split < n_features
    )
    class_ids = _class_ids(y, n_classes)

    def class_counts(rows: np.ndarray) -> np.ndarray:
        return np.bincount(y[rows], minlength=n_classes)

    def find_split(
        counts: np.ndarray, rows: np.ndarray, order: np.ndarray, depth: int
    ) -> tuple[int, float] | None:
        if (
            int(np.count_nonzero(counts)) <= 1
            or (params.max_depth is not None and depth >= params.max_depth)
            or rows.size < params.min_samples_split
        ):
            return None
        if sample_features:
            feature_ids = rng.choice(n_features, size=features_per_split, replace=False)
        else:
            feature_ids = np.arange(n_features)
        found = _node_split(
            X, class_ids, counts, order, params.min_samples_leaf, feature_ids
        )
        return None if found is None else found[:2]

    copies = None if template is None else _template_copies(template, params)
    tree = _grow(X, order, class_counts, find_split, template, copies)
    return _prune(tree, params.ccp_alpha) if params.ccp_alpha > 0.0 else tree


def _template_applies(grown: TreeHyperparams, params: TreeHyperparams) -> bool:
    """Whether a gini tree grown with ``grown`` on a training set can be the
    template of a fit with ``params`` on it: the tree is unpruned, grown
    without a depth limit, and its split gate and leaf size are no larger."""
    return (
        grown.max_depth is None
        and grown.ccp_alpha == 0.0
        and grown.min_samples_split <= params.min_samples_split
        and grown.min_samples_leaf <= params.min_samples_leaf
    )


def _template_copies(template: Tree, params: TreeHyperparams) -> np.ndarray:
    """The template nodes a fit with ``params`` reproduces when it reaches
    them with the template's rows: every leaf, and each split below
    ``params.max_depth`` of a node holding at least ``min_samples_split``
    rows whose two children hold at least ``min_samples_leaf`` each."""
    n_rows = template.value.sum(axis=1)
    split = np.flatnonzero(template.feature >= 0)
    smaller_child = np.minimum(n_rows[split + 1], n_rows[template.right[split]])
    legal = (n_rows[split] >= params.min_samples_split) & (
        smaller_child >= params.min_samples_leaf
    )
    if params.max_depth is not None:
        legal &= template.node_depth[split] < params.max_depth
    copies = template.feature < 0
    copies[split] = legal
    return copies


def _prune(tree: Tree, ccp_alpha: float) -> Tree:
    """Minimal cost-complexity pruning: repeatedly collapse the weakest links
    (every internal node tied at the lowest impurity improvement per removed
    leaf) while that improvement is <= ccp_alpha."""
    n = tree.feature.size
    n_total = int(tree.value[0].sum())
    # risk of node i as a leaf: its gini weighted by its share of the rows
    risk = [gini_impurity(v) * (int(v.sum()) / n_total) for v in tree.value]
    feature = tree.feature.copy()
    right = tree.right
    end = _subtree_end(tree)
    live = np.ones(n, dtype=bool)
    while feature[0] >= 0:
        # leaf risk sums and leaf counts of every live subtree, leaves up
        subtree_risk = list(risk)
        leaves = [1] * n
        g = np.full(n, np.inf)
        for node in range(n - 1, -1, -1):
            if live[node] and feature[node] >= 0:
                left, other = node + 1, right[node]
                subtree_risk[node] = subtree_risk[left] + subtree_risk[other]
                leaves[node] = leaves[left] + leaves[other]
                g[node] = (risk[node] - subtree_risk[node]) / (leaves[node] - 1)
        weakest_g = g.min()
        if weakest_g > ccp_alpha:
            break
        for node in np.flatnonzero(g == weakest_g):
            feature[node] = -1
            live[node + 1 : end[node]] = False
    threshold = np.where(feature < 0, np.nan, tree.threshold)
    return Tree(tree.value[live], feature[live], threshold[live])


def fit_tree(
    train: "ColumnarTable | np.ndarray",
    params: TreeHyperparams = TreeHyperparams(),
    labels: np.ndarray | None = None,
    order: np.ndarray | None = None,
    template: DecisionTreeModel | None = None,
) -> DecisionTreeModel:
    """Grow (and optionally prune) a classification tree.

    Growth stops at a node when it is pure, max_depth is reached, it holds
    fewer than min_samples_split rows, or no legal split strictly improves
    impurity. With ccp_alpha > 0 the fitted tree is post-pruned. Fits on one
    training set can share its presort: pass ``_presort`` of its feature
    matrix as ``order``. They can also share splits: a ``template`` fitted
    on the same training set lets growth copy its splits where they are
    this fit's own (see the module docstring); a template fitted with
    settings that ``_template_applies`` rejects is ignored. The fitted tree
    is the same either way.
    """
    X, y, n_classes = _as_training_set(train, labels)
    if X.shape[0] == 0:
        raise DataError("cannot fit a tree on zero rows")
    if X.shape[1] == 0:
        raise DataError("cannot fit a tree without features")
    copied = None
    if template is not None:
        if template.n_features != X.shape[1] or not np.array_equal(
            template.root.value[0], np.bincount(y, minlength=n_classes)
        ):
            raise DataError("template tree was not fitted on this training set")
        if _template_applies(template.params, params):
            copied = template.root
    root = _grow_gini(X, y, n_classes, params, order=order, template=copied)
    return DecisionTreeModel(root, params, n_classes, X.shape[1])


def _route(
    tree: Tree,
    X: np.ndarray,
    max_depth: int | None = None,
    min_samples_split: int | None = None,
) -> np.ndarray:
    """Id of the node where each row of ``X`` stops.

    A row stops at the first leaf, or at the first node at depth >= max_depth
    or holding fewer than min_samples_split training rows; None cuts nothing.
    Split choice depends only on a node's rows and min_samples_leaf, so an
    unpruned gini tree grown with no depth limit and a split gate no larger
    than min_samples_split, cut this way, predicts exactly like the tree grown
    with these limits and the same min_samples_leaf. The same argument, with
    a larger leaf size whose window of legal boundaries nests inside the
    tree's, lets growth copy the tree's splits as a template (see the module
    docstring): a cut changes where rows stop, a larger leaf size changes
    which splits survive.
    """
    stop = tree.feature < 0
    if max_depth is not None:
        stop |= tree.node_depth >= max_depth
    if min_samples_split is not None:
        stop |= tree.value.sum(axis=1) < min_samples_split
    node = np.zeros(X.shape[0], dtype=np.int64)
    moving = np.flatnonzero(~stop[node])
    while moving.size:
        # advance every row still moving one level down
        at = node[moving]
        go_left = X[moving, tree.feature[at]] <= tree.threshold[at]
        node[moving] = np.where(go_left, at + 1, tree.right[at])
        moving = moving[~stop[node[moving]]]
    return node


def _classify(
    tree: Tree,
    X: np.ndarray,
    max_depth: int | None = None,
    min_samples_split: int | None = None,
) -> np.ndarray:
    """Class of each row of ``X``: the class-count argmax (lowest class id on
    ties) of the node where ``_route`` stops it."""
    return np.argmax(tree.value, axis=1)[_route(tree, X, max_depth, min_samples_split)]


def predict_tree(model: DecisionTreeModel, data: "ColumnarTable | np.ndarray") -> np.ndarray:
    """Route rows to leaves; each leaf votes its class-count argmax (lowest
    class id on ties)."""
    return _classify(model.root, _as_matrix(data, model.n_features))
