"""Bootstrap forest: degenerate single-tree case, determinism, vote quality."""

import numpy as np
import pytest

from flowgate.errors import DataError
from flowgate.models.forest import ForestParams, fit_forest, predict_forest
from flowgate.models.tree import _classify, _prune, fit_tree, predict_tree

from conftest import conflict_free_table, make_table


def test_degenerate_forest_equals_plain_tree():
    table = conflict_free_table(120, 3, 3, seed=4)
    forest = fit_forest(
        table, ForestParams(n_trees=1, features_per_split=3, bootstrap=False), seed=0
    )
    tree = fit_tree(table)
    assert np.array_equal(predict_forest(forest, table), predict_tree(tree, table))


def test_default_feature_subset_is_ceil_sqrt():
    table = conflict_free_table(40, 5, 2, seed=1)
    forest = fit_forest(table, ForestParams(n_trees=2), seed=0)
    assert forest.params.features_per_split == 3  # ceil(sqrt(5))
    nine = make_table(
        np.random.default_rng(0).normal(size=(30, 9)),
        np.random.default_rng(1).integers(0, 2, size=30),
    )
    assert fit_forest(nine, ForestParams(n_trees=1), seed=0).params.features_per_split == 3


def test_same_seed_same_forest():
    table = conflict_free_table(100, 4, 3, seed=9)
    a = fit_forest(table, ForestParams(n_trees=7), seed=42)
    b = fit_forest(table, ForestParams(n_trees=7), seed=42)
    probe = conflict_free_table(50, 4, 3, seed=10)
    assert np.array_equal(predict_forest(a, probe), predict_forest(b, probe))


def test_different_seed_usually_differs_somewhere():
    table = conflict_free_table(100, 4, 3, seed=9)
    a = fit_forest(table, ForestParams(n_trees=5), seed=1)
    b = fit_forest(table, ForestParams(n_trees=5), seed=2)
    probe = np.random.default_rng(3).normal(size=(200, 4))
    assert not np.array_equal(predict_forest(a, probe), predict_forest(b, probe))


def test_forest_not_much_worse_than_single_tree():
    rng = np.random.default_rng(14)
    X = np.concatenate([rng.normal(-2, 1, size=(150, 4)), rng.normal(2, 1, size=(150, 4))])
    y = np.concatenate([np.zeros(150, dtype=np.int64), np.ones(150, dtype=np.int64)])
    order = rng.permutation(300)
    table = make_table(X[order], y[order])
    probe_X = np.concatenate(
        [rng.normal(-2, 1, size=(100, 4)), rng.normal(2, 1, size=(100, 4))]
    )
    probe_y = np.concatenate([np.zeros(100, dtype=np.int64), np.ones(100, dtype=np.int64)])
    tree_acc = float(np.mean(predict_tree(fit_tree(table), probe_X) == probe_y))
    forest_acc = float(
        np.mean(
            predict_forest(fit_forest(table, ForestParams(n_trees=25), seed=0), probe_X)
            == probe_y
        )
    )
    assert forest_acc >= tree_acc - 0.01


def test_vote_tie_goes_to_lowest_class_id():
    # two stumps voting for different classes on the same row
    table = conflict_free_table(60, 2, 2, seed=6)
    forest = fit_forest(table, ForestParams(n_trees=2, max_depth=1), seed=0)
    votes_pred = predict_forest(forest, table)
    per_tree = np.stack([_classify(t, table.feature_matrix()) for t in forest.trees])
    for row in range(table.n_rows):
        a, b = per_tree[:, row]
        if a != b:
            assert votes_pred[row] == min(a, b)


def test_forest_validation():
    table = conflict_free_table(20, 2, 2, seed=0)
    with pytest.raises(DataError):
        fit_forest(table, ForestParams(n_trees=0))
    with pytest.raises(DataError):
        fit_forest(table, ForestParams(n_trees=1, features_per_split=3))
    with pytest.raises(DataError):
        fit_forest(table, ForestParams(n_trees=1, features_per_split=0))


def test_model_records_its_configuration():
    table = conflict_free_table(30, 3, 2, seed=2)
    forest = fit_forest(
        table, ForestParams(n_trees=4, features_per_split=2, bootstrap=True), seed=7
    )
    assert len(forest.trees) == 4
    assert forest.params.n_trees == 4
    assert forest.params.features_per_split == 2
    assert forest.params.bootstrap is True
    assert forest.seed == 7
    assert forest.n_features == 3


def test_ccp_alpha_prunes_every_tree():
    table = conflict_free_table(200, 4, 3, seed=12)
    for tree in fit_forest(table, ForestParams(n_trees=3, ccp_alpha=10.0), seed=0).trees:
        assert tree.feature.tolist() == [-1]
    # each tree is its unpruned growth, pruned: pruning draws nothing from the rng
    grown = fit_forest(table, ForestParams(n_trees=3), seed=5).trees
    pruned = fit_forest(table, ForestParams(n_trees=3, ccp_alpha=0.01), seed=5).trees
    for full, tree in zip(grown, pruned, strict=True):
        want = _prune(full, 0.01)
        assert tree.n_leaves() < full.n_leaves()
        assert np.array_equal(tree.feature, want.feature)
        assert np.array_equal(tree.value, want.value)
