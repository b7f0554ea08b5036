"""Shared builders and independent oracles.

The oracles here recompute contracts from first principles with exact
rational arithmetic (fractions.Fraction) and deliberately naive algorithms,
so they share no code path with the library. Tests freeze their outputs or
compare them directly against the fast implementations.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from flowgate.dataset import KIND_LABEL, KIND_NUMERIC, ColumnSchema, ColumnarTable
from flowgate.errors import DataError
from flowgate.models.tree import TreeHyperparams, fit_tree, gini_impurity


# GitHub Actions sets CI. Derandomized runs draw the same examples on every
# machine, and a failing example prints the blob that replays it locally
# (@reproduce_failure), so a CI failure can be rerun here.
settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


# -- table builders ------------------------------------------------------------


def make_table(
    X: np.ndarray,
    y: np.ndarray,
    class_names: tuple[str, ...] | None = None,
) -> ColumnarTable:
    """Wrap a feature matrix and label vector in a ColumnarTable."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError("X must be (n, d) with one label per row")
    if class_names is None:
        n_classes = int(y.max()) + 1 if y.size else 1
        class_names = tuple(f"c{k}" for k in range(n_classes))
    schema = [
        ColumnSchema(f"f{j:02d}", KIND_NUMERIC, j) for j in range(X.shape[1])
    ]
    schema.append(ColumnSchema("label", KIND_LABEL, X.shape[1]))
    columns = [np.ascontiguousarray(X[:, j]) for j in range(X.shape[1])]
    return ColumnarTable(schema, columns, y, class_names)


def random_table(
    n: int, d: int, k: int, seed: int, spread: float = 1.0
) -> ColumnarTable:
    rng = np.random.default_rng(seed)
    X = rng.normal(0.0, spread, size=(n, d))
    y = rng.integers(0, k, size=n)
    # every class id must appear at least once so n_classes is stable
    y[:k] = np.arange(k)
    return make_table(X, rng.permutation(y))


def conflict_free_table(n: int, d: int, k: int, seed: int) -> ColumnarTable:
    """Distinct feature vectors with arbitrary labels: memorizable exactly."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    while np.unique(X, axis=0).shape[0] != n:  # pragma: no cover - measure zero
        X = rng.normal(size=(n, d))
    y = rng.integers(0, k, size=n)
    y[:k] = np.arange(k)
    return make_table(X, rng.permutation(y))


def malformed_model_documents() -> dict[str, tuple[object, str]]:
    """Model documents that loading must refuse, by file name, each with the
    part of the DataError message that names its bad key or value. All but
    the first three are one of tests/data/model_v2_dt.json, model_v2_rf.json,
    model_v2_gbt.json and model_v2_baseline.json (3 features, 3 classes; the
    gbt file has 2 rounds) with one change. Every integer field must hold a
    JSON integer: a float, even a whole one, or a boolean is refused, not
    truncated. A value no fit could have produced is refused too."""
    data = Path(__file__).parent / "data"
    dt, rf, gbt, baseline = (
        json.loads((data / f"model_v2_{name}.json").read_text(encoding="utf-8"))
        for name in ("dt", "rf", "gbt", "baseline")
    )

    def dt_root(**arrays):
        return dt | {"root": dt["root"] | arrays}

    def rf_tree(**arrays):
        return rf | {"trees": [rf["trees"][0] | arrays, *rf["trees"][1:]]}

    def gbt_tree(**arrays):
        first, *rest = gbt["trees"]
        return gbt | {"trees": [[first[0] | arrays, *first[1:]], *rest]}

    counts, feature, threshold = (dt["root"][key] for key in ("counts", "feature", "threshold"))
    weights = gbt["trees"][0][0]["value"]
    return {
        "malformed.json": (
            {"format": "flowgate-model", "version": 2, "kind": "decision_tree"},
            "missing key 'n_classes'",
        ),
        "array.json": ([1, 2], "not a flowgate-model document"),
        # format 1 nested each tree's nodes; nothing writes it any more
        "v1.json": (
            {"format": "flowgate-model", "version": 1, "kind": "decision_tree"},
            "unsupported model document version 1",
        ),
        "no-classes.json": (
            {key: value for key, value in dt.items() if key != "n_classes"},
            "missing key 'n_classes'",
        ),
        "text-feature.json": (gbt_tree(feature="x"), "'x'"),
        "fractional-feature.json": (
            gbt_tree(feature=[0.7, *gbt["trees"][0][0]["feature"][1:]]),
            "a tree feature must be an integer, got 0.7",
        ),
        "far-feature.json": (
            rf_tree(feature=[99, *rf["trees"][0]["feature"][1:]]),
            "tree feature 99 is not in [0, 3)",
        ),
        "fewer-classes.json": (dt | {"n_classes": 2}, "has shape (3,), not (2,)"),
        "gbt-fewer-classes.json": (gbt | {"n_classes": 2}, "has shape (3,), not (2,)"),
        "v2-far-feature.json": (
            dt_root(feature=[99, *feature[1:]]), "tree feature 99 is not in [0, 3)"
        ),
        # the last node is a leaf, so -2 leaves the arrays one preorder tree
        "v2-negative-feature.json": (
            dt_root(feature=[*feature[:-1], -2]), "tree feature -2 is not in [0, 3)"
        ),
        "v2-unequal-arrays.json": (
            dt_root(threshold=threshold[:-1]), "tree arrays are not one preorder tree"
        ),
        "v2-nan-threshold.json": (
            dt_root(threshold=["nan", *threshold[1:]]), "a tree split has threshold nan"
        ),
        "v2-not-a-tree.json": (
            dt_root(counts=counts[:2], feature=[0, -1], threshold=threshold[:2]),
            "tree arrays are not one preorder tree",
        ),
        "v2-fractional-feature.json": (
            dt_root(feature=[0.7, *feature[1:]]), "a tree feature must be an integer, got 0.7"
        ),
        "v2-whole-float-feature.json": (
            dt_root(feature=[float(feature[0]), *feature[1:]]),
            "a tree feature must be an integer, got 0.0",
        ),
        "v2-boolean-feature.json": (
            dt_root(feature=[True, *feature[1:]]), "a tree feature must be an integer, got True"
        ),
        "v2-huge-feature.json": (
            dt_root(feature=[2**70, *feature[1:]]), "bad value: Python int too large"
        ),
        "v2-fractional-count.json": (
            dt_root(counts=[[15.5, *counts[0][1:]], *counts[1:]]),
            "a class count must be an integer, got 15.5",
        ),
        # node 2 is a leaf of counts [15, 0, 0]
        "v2-negative-count.json": (
            dt_root(counts=[*counts[:2], [-5, 0, 0], *counts[3:]]),
            "a class count must be >= 0, got -5",
        ),
        "v2-empty-leaf.json": (
            dt_root(counts=[*counts[:2], [0, 0, 0], *counts[3:]]),
            "a tree node has class counts that are all 0",
        ),
        "v2-fractional-features.json": (
            dt | {"n_features": 3.9}, "n_features must be an integer, got 3.9"
        ),
        "v2-whole-float-classes.json": (
            dt | {"n_classes": 3.0}, "n_classes must be an integer, got 3.0"
        ),
        "v2-fractional-depth.json": (
            dt | {"params": dt["params"] | {"max_depth": 2.5}},
            "params.max_depth must be an integer, got 2.5",
        ),
        # format 1 also stored "criterion" and "seed", which growth never read
        "v2-unknown-param.json": (
            dt | {"params": dt["params"] | {"criterion": "gini"}},
            "params has unknown key 'criterion'",
        ),
        "gbt-whole-float-rounds.json": (
            gbt | {"params": gbt["params"] | {"n_rounds": 2.0}},
            "params.n_rounds must be an integer, got 2.0",
        ),
        "rf-fractional-seed.json": (rf | {"seed": 7.5}, "seed must be an integer, got 7.5"),
        "rf-whole-float-features-per-split.json": (
            rf | {"features_per_split": 2.0},
            "features_per_split must be an integer, got 2.0",
        ),
        "rf-numeric-bootstrap.json": (
            rf | {"bootstrap": 1}, "bootstrap must be true or false, got 1"
        ),
        "baseline-boolean-majority.json": (
            baseline | {"majority_class": True},
            "majority_class must be an integer, got True",
        ),
        "baseline-far-majority.json": (
            baseline | {"majority_class": 7}, "majority_class 7 is not in [0, 3)"
        ),
        "baseline-negative-majority.json": (
            baseline | {"majority_class": -1}, "majority_class -1 is not in [0, 3)"
        ),
        "baseline-ratio-above-one.json": (
            baseline | {"train_ratio": (2.5).hex()}, "train_ratio 2.5 is not in [0, 1]"
        ),
        "baseline-nan-ratio.json": (
            baseline | {"train_ratio": "nan"}, "train_ratio nan is not in [0, 1]"
        ),
        "v2-gbt-fewer-rounds.json": (
            gbt | {"trees": gbt["trees"][:1]},
            "trees hold 1 rounds, not params.n_rounds 2",
        ),
        "v2-gbt-no-rounds.json": (
            gbt | {"trees": []}, "trees hold 0 rounds, not params.n_rounds 2"
        ),
        "v2-gbt-nan-base-score.json": (
            gbt | {"base_score": ["nan", *gbt["base_score"][1:]]},
            "base_score must be finite, got nan",
        ),
        "v2-gbt-infinite-weight.json": (
            gbt_tree(value=[*weights[:2], "inf", *weights[3:]]),
            "a leaf weight must be finite, got inf",
        ),
        "rf-features-per-split-above-features.json": (
            rf | {"features_per_split": 99}, "features_per_split must be in [1, 3], got 99"
        ),
    }


# -- metric oracle -------------------------------------------------------------


def oracle_metrics(
    y_true: np.ndarray, y_pred: np.ndarray, n_classes: int, mode: str = "weighted"
) -> dict[str, float]:
    """Counting-based scores, exact until the final float conversion."""
    y_true = [int(v) for v in y_true]
    y_pred = [int(v) for v in y_pred]
    n = len(y_true)
    pairs = Counter(zip(y_true, y_pred))
    correct = sum(pairs[(c, c)] for c in range(n_classes))

    p_total = Fraction(0)
    r_total = Fraction(0)
    f_total = Fraction(0)
    for c in range(n_classes):
        tp = pairs[(c, c)]
        fp = sum(k for (t, p), k in pairs.items() if p == c and t != c)
        fn = sum(k for (t, p), k in pairs.items() if t == c and p != c)
        support = tp + fn
        precision = Fraction(tp, tp + fp) if tp + fp else Fraction(0)
        recall = Fraction(tp, support) if support else Fraction(0)
        f1 = Fraction(2 * tp, 2 * tp + fp + fn) if 2 * tp + fp + fn else Fraction(0)
        if mode == "weighted":
            w = Fraction(support, n)
        else:
            w = Fraction(1, n_classes)
        p_total += w * precision
        r_total += w * recall
        f_total += w * f1
    return {
        "accuracy": correct / n,
        "precision": float(p_total),
        "recall": float(r_total),
        "f1": float(f_total),
    }


# -- split-search oracle ---------------------------------------------------------


def oracle_best_split(
    X: np.ndarray, y: np.ndarray, min_samples_leaf: int = 1
) -> tuple[int, float, float] | None:
    """Exhaustive split search with exact scoring.

    Candidates are midpoints between consecutive distinct sorted values of
    each feature; a midpoint that collapses onto the upper value (adjacent
    doubles) cannot separate the pair and is skipped. Rows route left on
    x <= threshold. The winner maximizes sum(left counts^2)/n_left +
    sum(right counts^2)/n_right exactly; ties prefer the lowest feature,
    then the lowest threshold. Returns None unless the winner strictly
    beats the unsplit node.
    """
    X = np.asarray(X, dtype=np.float64)
    y = [int(v) for v in y]
    n, d = X.shape
    classes = sorted(set(y))
    parent = Fraction(sum(y.count(c) ** 2 for c in classes), n)

    best: tuple[Fraction, int, float, int] | None = None
    for f in range(d):
        level = sorted(set(float(v) for v in X[:, f]))
        for lo, hi in zip(level, level[1:]):
            mid = (lo + hi) / 2.0
            if not mid < hi:
                continue
            left = [i for i in range(n) if X[i, f] <= mid]
            nl, nr = len(left), n - len(left)
            if nl < min_samples_leaf or nr < min_samples_leaf:
                continue
            left_set = set(left)
            yl = [y[i] for i in left]
            yr = [y[i] for i in range(n) if i not in left_set]
            score = Fraction(sum(yl.count(c) ** 2 for c in classes), nl) + Fraction(
                sum(yr.count(c) ** 2 for c in classes), nr
            )
            key = (score, f, mid)
            if best is None or score > best[0] or (
                score == best[0] and (f, mid) < (best[1], best[2])
            ):
                best = (score, f, mid, nl)
    if best is None or best[0] <= parent:
        return None
    score, f, mid, _ = best
    decrease = (score - parent) / n
    return f, mid, float(decrease)


def best_split(
    rows: np.ndarray,
    table: ColumnarTable,
    params: TreeHyperparams = TreeHyperparams(),
) -> tuple[int, float, float] | None:
    """The library's best (feature, threshold, impurity decrease) over the
    given row ids of ``table``: the root split of a one-level ``fit_tree`` on
    those rows (``max_depth`` 1, split gate max(2, leaf)), whose decrease is
    taken from the children's class counts. Returns None when no legal split
    strictly improves impurity. Not an oracle: tests compare it with
    ``oracle_best_split``.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        raise DataError("cannot split an empty row set")
    leaf = params.min_samples_leaf
    stump = TreeHyperparams(max_depth=1, min_samples_split=max(2, leaf), min_samples_leaf=leaf)
    tree = fit_tree(table.take_rows(rows), stump).root
    if tree.feature[0] < 0:
        return None
    n = rows.size
    parent, left, right = tree.value
    nl, nr = int(left.sum()), int(right.sum())
    decrease = gini_impurity(parent) - nl / n * gini_impurity(left) - nr / n * gini_impurity(right)
    return int(tree.feature[0]), float(tree.threshold[0]), float(decrease)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260814)
