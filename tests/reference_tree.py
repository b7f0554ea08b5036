"""Reference tree growth: the per-node sort search that presorted growth
replaced, kept as an independent copy to compare against.

Every node sorts each feature of its rows with a stable argsort and scores
the boundaries with a cumulative one-hot class-count matrix (gini) or
cumulative gradient sums (boosting). Presorted growth must give the same
trees bit for bit. The one deliberate difference is not reproduced here: this
search lets a boundary whose midpoint rounds up onto the upper value (two
adjacent doubles) set the best score although it cannot split, so the test
data avoid adjacent doubles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from flowgate.models.gbt import GbtParams, _leaf_value, _softmax, _split_gain_terms
from flowgate.models.tree import Tree, TreeHyperparams, _route


@dataclass(frozen=True)
class _Candidate:
    feature: int
    threshold: float
    n_left: int
    sum_left_sq: int
    sum_right_sq: int


def node_split(X, y, rows, n_classes, min_samples_leaf, feature_ids):
    """Best legal gini split of ``rows`` as (feature, threshold, decrease),
    or None when no split strictly improves."""
    n = int(rows.size)
    y_node = y[rows]
    counts = np.bincount(y_node, minlength=n_classes)
    sum_sq_parent = int((counts.astype(np.int64) ** 2).sum())

    best_score = -np.inf
    candidates: list[_Candidate] = []

    def consider(feature, values):
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
        for j in np.flatnonzero(scores >= feature_best - tol):
            i = int(idx[j])
            lo = float(vs[i])
            hi = float(vs[i + 1])
            mid = (lo + hi) / 2.0
            if not mid < hi:
                continue
            left_counts = cum[i]
            candidates.append(
                _Candidate(
                    feature=feature,
                    threshold=mid,
                    n_left=i + 1,
                    sum_left_sq=int((left_counts.astype(object) ** 2).sum()),
                    sum_right_sq=int(((counts - left_counts).astype(object) ** 2).sum()),
                )
            )

    for feature in np.sort(feature_ids):
        consider(int(feature), X[rows, feature])

    if not candidates:
        return None

    best = None
    best_num = best_den = 0
    window = 1e-9 * max(1.0, best_score)
    for cand in candidates:
        nl, nr = cand.n_left, n - cand.n_left
        num, den = cand.sum_left_sq * nr + cand.sum_right_sq * nl, nl * nr
        approx = cand.sum_left_sq / nl + cand.sum_right_sq / nr
        if approx < best_score - window:
            continue
        if best is None:
            best, best_num, best_den = cand, num, den
            continue
        lhs = num * best_den
        rhs = best_num * den
        if lhs > rhs or (
            lhs == rhs and (cand.feature, cand.threshold) < (best.feature, best.threshold)
        ):
            best, best_num, best_den = cand, num, den
    if best is None or best_num * n <= sum_sq_parent * best_den:
        return None
    nl = best.n_left
    nr = n - nl
    gini_parent = 1.0 - sum_sq_parent / (float(n) * float(n))
    gini_left = 1.0 - best.sum_left_sq / (float(nl) * float(nl))
    gini_right = 1.0 - best.sum_right_sq / (float(nr) * float(nr))
    decrease = gini_parent - (nl / n) * gini_left - (nr / n) * gini_right
    return best.feature, best.threshold, float(decrease)


def grow(X, payload, find_split) -> Tree:
    """Preorder grow loop, left child first; each node passes its row ids."""
    nodes = []
    stack = [(np.arange(X.shape[0], dtype=np.int64), 0)]
    while stack:
        rows, depth = stack.pop()
        value = payload(rows)
        found = find_split(value, rows, depth)
        feature, threshold = (-1, np.nan) if found is None else found
        nodes.append((value, feature, threshold))
        if found is not None:
            mask = X[rows, feature] <= threshold
            stack.append((rows[~mask], depth + 1))
            stack.append((rows[mask], depth + 1))
    values, features, thresholds = zip(*nodes)
    return Tree(np.asarray(values), features, thresholds)


def grow_gini(
    X, y, n_classes, params: TreeHyperparams, rng=None, features_per_split=None
) -> Tree:
    n_features = X.shape[1]
    sample_features = features_per_split is not None and features_per_split < n_features

    def class_counts(rows):
        return np.bincount(y[rows], minlength=n_classes)

    def find_split(counts, rows, depth):
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
        found = node_split(X, y, rows, n_classes, params.min_samples_leaf, feature_ids)
        return None if found is None else found[:2]

    return grow(X, class_counts, find_split)


def forest_trees(X, y, n_classes, n_trees, params, features_per_split, bootstrap, seed):
    """The trees ``fit_forest`` grows, one seeded stream per tree."""
    trees = []
    n = X.shape[0]
    for child in np.random.SeedSequence(seed).spawn(n_trees):
        rng = np.random.default_rng(child)
        if bootstrap:
            rows = rng.integers(0, n, size=n)
            X_fit, y_fit = np.ascontiguousarray(X[rows]), y[rows]
        else:
            X_fit, y_fit = X, y
        trees.append(
            grow_gini(X_fit, y_fit, n_classes, params, rng=rng, features_per_split=features_per_split)
        )
    return trees


def gradient_split(X, g, h, rows, lam):
    g_node = g[rows]
    h_node = h[rows]
    g_total = float(g_node.sum())
    h_total = float(h_node.sum())
    parent_term = _split_gain_terms(g_total, h_total, lam)
    best_gain = 0.0
    best = None
    for feature in range(X.shape[1]):
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
        gains = (
            _split_gain_terms(gl, hl, lam)
            + _split_gain_terms(g_total - gl, h_total - hl, lam)
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
    return best


def gbt_trees(X, y, n_classes, params: GbtParams) -> list[list[Tree]]:
    """The [round][class] trees ``fit_gbt`` grows."""
    n = X.shape[0]
    lam = params.l2_lambda
    counts = np.bincount(y, minlength=n_classes).astype(np.float64)
    onehot = np.zeros((n, n_classes), dtype=np.float64)
    onehot[np.arange(n), y] = 1.0
    scores = np.tile(np.log(np.maximum(counts, 1.0) / n), (n, 1))
    rounds = []
    for _ in range(params.n_rounds):
        probs = _softmax(scores)
        round_trees = []
        for k in range(n_classes):
            g = probs[:, k] - onehot[:, k]
            h = probs[:, k] * (1.0 - probs[:, k])

            def leaf_weight(rows, g=g, h=h):
                return _leaf_value(float(g[rows].sum()), float(h[rows].sum()), lam)

            def find_split(weight, rows, depth, g=g, h=h):
                if depth >= params.max_depth or rows.size < 2:
                    return None
                return gradient_split(X, g, h, rows, lam)

            tree = grow(X, leaf_weight, find_split)
            round_trees.append(tree)
            scores[:, k] += params.learning_rate * tree.value[_route(tree, X)]
        rounds.append(round_trees)
    return rounds
