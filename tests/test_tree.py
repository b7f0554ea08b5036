"""Tree growth: impurity, exact split selection, stopping rules, pruning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowgate.errors import DataError
from flowgate.models.tree import (
    DecisionTreeModel,
    TreeHyperparams,
    TreeNode,
    best_split,
    fit_tree,
    gini_impurity,
    predict_tree,
)

from conftest import conflict_free_table, make_table, oracle_best_split


# -- impurity -----------------------------------------------------------------


def test_gini_values():
    assert gini_impurity([1, 1]) == 0.5
    assert gini_impurity([0, 4]) == 0.0
    assert gini_impurity([1, 2, 3]) == pytest.approx(11 / 18, abs=1e-15)


def test_gini_rejects_degenerate_counts():
    with pytest.raises(DataError):
        gini_impurity([0, 0])
    with pytest.raises(DataError):
        gini_impurity([])
    with pytest.raises(DataError):
        gini_impurity([2, -1])


# -- split search ----------------------------------------------------------------


def test_stump_split_frozen():
    X = np.array([[1.0], [2.0], [10.0], [11.0]])
    y = np.array([0, 0, 1, 1])
    got = best_split(np.arange(4), X, labels=y)
    assert got is not None
    feature, threshold, decrease = got
    assert feature == 0
    assert threshold == 6.0
    assert decrease == pytest.approx(0.5, abs=1e-15)


def test_threshold_tie_prefers_the_lower_one():
    # 0|1 1|0 splits at 0.5 and 2.5 score identically
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 1, 1, 0])
    got = best_split(np.arange(4), X, labels=y)
    assert got is not None
    feature, threshold, decrease = got
    assert (feature, threshold) == (0, 0.5)
    assert decrease == pytest.approx(1 / 6, abs=1e-15)


def test_feature_tie_prefers_the_lower_feature():
    col = np.array([1.0, 2.0, 10.0, 11.0])
    X = np.column_stack([col, col])
    y = np.array([0, 0, 1, 1])
    got = best_split(np.arange(4), X, labels=y)
    assert got is not None
    assert got[0] == 0


def test_pure_node_has_no_split():
    X = np.array([[1.0], [2.0], [3.0]])
    assert best_split(np.arange(3), X, labels=np.zeros(3, dtype=np.int64)) is None


def test_identical_rows_have_no_split():
    X = np.ones((4, 2))
    y = np.array([0, 1, 0, 1])
    assert best_split(np.arange(4), X, labels=y) is None


def test_min_samples_leaf_blocks_narrow_splits():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 0, 1, 1])
    params = TreeHyperparams(min_samples_leaf=3, min_samples_split=3)
    assert best_split(np.arange(4), X, params=params, labels=y) is None


def test_split_on_row_subset():
    X = np.array([[1.0], [2.0], [10.0], [11.0], [50.0]])
    y = np.array([0, 0, 1, 1, 0])
    got = best_split(np.array([0, 1, 2, 3]), X, labels=y)
    assert got is not None
    assert got[1] == 6.0


def test_no_split_when_nothing_improves():
    # any threshold keeps both sides at the same half-half mix
    X = np.array([[0.0], [0.0], [1.0], [1.0]])
    y = np.array([0, 1, 0, 1])
    assert best_split(np.arange(4), X, labels=y) is None


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_split_agrees_with_exhaustive_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 40))
    d = int(rng.integers(1, 4))
    k = int(rng.integers(2, 4))
    # low-cardinality grid values force plenty of exact ties
    X = rng.integers(0, 5, size=(n, d)).astype(np.float64)
    y = rng.integers(0, k, size=n)
    msl = int(rng.integers(1, 3))
    got = best_split(
        np.arange(n),
        X,
        params=TreeHyperparams(min_samples_leaf=msl, min_samples_split=max(2, msl)),
        labels=y,
    )
    want = oracle_best_split(X, y, min_samples_leaf=msl)
    if want is None:
        assert got is None
    else:
        assert got is not None
        assert got[0] == want[0]
        assert got[1] == want[1]
        assert got[2] == pytest.approx(want[2], rel=1e-12, abs=1e-15)


# -- growth and stopping -----------------------------------------------------------


def test_memorizes_conflict_free_data():
    table = conflict_free_table(200, 3, 4, seed=11)
    model = fit_tree(table)
    assert np.array_equal(predict_tree(model, table), table.labels)


def test_single_class_gives_single_leaf():
    table = make_table(np.random.default_rng(0).normal(size=(30, 2)), np.zeros(30, dtype=np.int64))
    model = fit_tree(table)
    assert model.root.is_leaf
    assert predict_tree(model, table).tolist() == [0] * 30


def test_max_depth_one_is_a_stump():
    table = conflict_free_table(100, 2, 2, seed=5)
    model = fit_tree(table, TreeHyperparams(max_depth=1))
    assert model.root.depth() <= 1
    assert model.root.n_leaves() <= 2


def test_min_samples_split_stops_growth():
    table = conflict_free_table(40, 2, 2, seed=8)
    model = fit_tree(table, TreeHyperparams(min_samples_split=41))
    assert model.root.is_leaf


def test_leaf_prediction_majority_and_ties():
    assert TreeNode(np.array([0, 7])).prediction == 1
    assert TreeNode(np.array([3, 3])).prediction == 0


def test_structural_limits_hold():
    rng = np.random.default_rng(21)
    for seed in range(8):
        table = make_table(
            rng.integers(0, 6, size=(60, 3)).astype(np.float64),
            rng.integers(0, 3, size=60),
        )
        params = TreeHyperparams(max_depth=4, min_samples_split=6, min_samples_leaf=2)
        model = fit_tree(table, params)
        assert model.root.depth() <= 4
        # leaves reached by routing the training rows hold >= min_samples_leaf
        X = table.feature_matrix()
        stack = [(model.root, np.arange(X.shape[0]))]
        while stack:
            node, rows = stack.pop()
            if node.is_leaf:
                assert rows.size >= params.min_samples_leaf
                continue
            mask = X[rows, node.feature] <= node.threshold
            assert rows[mask].size >= params.min_samples_leaf
            assert rows[~mask].size >= params.min_samples_leaf
            stack.append((node.left, rows[mask]))
            stack.append((node.right, rows[~mask]))


def test_node_counts_sum_to_children():
    table = conflict_free_table(120, 2, 3, seed=13)
    model = fit_tree(table)
    stack = [model.root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            continue
        assert np.array_equal(node.value, node.left.value + node.right.value)
        stack.extend([node.left, node.right])


def test_hyperparameter_validation():
    with pytest.raises(DataError):
        TreeHyperparams(max_depth=0)
    with pytest.raises(DataError):
        TreeHyperparams(min_samples_split=1)
    with pytest.raises(DataError):
        TreeHyperparams(min_samples_leaf=0)
    with pytest.raises(DataError):
        TreeHyperparams(min_samples_leaf=5, min_samples_split=4)
    with pytest.raises(DataError):
        TreeHyperparams(ccp_alpha=-0.1)


def test_fit_rejects_empty_inputs():
    with pytest.raises(DataError):
        fit_tree(np.zeros((0, 2)), labels=np.zeros(0, dtype=np.int64))
    with pytest.raises(DataError):
        fit_tree(np.zeros((3, 0)), labels=np.zeros(3, dtype=np.int64))
    with pytest.raises(DataError):
        best_split(np.array([], dtype=np.int64), np.zeros((3, 1)), labels=np.zeros(3, dtype=np.int64))


# -- pruning -----------------------------------------------------------------------


def test_huge_alpha_collapses_to_root_leaf():
    table = conflict_free_table(80, 2, 2, seed=3)
    model = fit_tree(table, TreeHyperparams(ccp_alpha=10.0))
    assert model.root.is_leaf


def test_pruning_never_grows_the_tree():
    table = conflict_free_table(150, 3, 3, seed=17)
    full = fit_tree(table)
    pruned = fit_tree(table, TreeHyperparams(ccp_alpha=0.01))
    assert pruned.root.n_leaves() <= full.root.n_leaves()
    assert pruned.root.depth() <= full.root.depth()


def test_pruned_tree_still_predicts_reasonably():
    rng = np.random.default_rng(30)
    X = np.concatenate([rng.normal(-3, 1, size=(100, 2)), rng.normal(3, 1, size=(100, 2))])
    y = np.concatenate([np.zeros(100, dtype=np.int64), np.ones(100, dtype=np.int64)])
    table = make_table(X, y)
    model = fit_tree(table, TreeHyperparams(ccp_alpha=0.005))
    acc = float(np.mean(predict_tree(model, table) == y))
    assert acc >= 0.95


def test_predict_requires_matching_width():
    table = conflict_free_table(50, 3, 2, seed=2)
    model = fit_tree(table)
    with pytest.raises(DataError):
        predict_tree(model, np.zeros((4, 2)))


def test_model_predict_method_matches_function():
    table = conflict_free_table(60, 2, 2, seed=19)
    model = fit_tree(table)
    assert isinstance(model, DecisionTreeModel)
    assert np.array_equal(model.predict(table), predict_tree(model, table))
