"""Presorted growth grows the trees of the per-node sort search bit for bit,
and every split it makes is the exhaustive oracle's split of that node."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowgate.errors import DataError
from flowgate.models.forest import ForestParams, fit_forest
from flowgate.models.gbt import GbtParams, fit_gbt
from flowgate.models import tree as tree_module
from flowgate.models.tree import SplitCache, TreeHyperparams, _presort, fit_tree

from conftest import make_table, oracle_best_split
import reference_tree

# ties, signed zeros and a huge value; no two are adjacent doubles
POOL = np.array([-2.0, -1.0, -0.0, 0.0, 0.25, 0.5, 1.0, 1.5, 3.0, 7.0, 1e300])


def _training_set(seed, n, d, k):
    """Cells drawn from POOL, some duplicated rows, one constant column in
    half the draws, and labels in which every class id below min(k, n)
    occurs."""
    k = min(k, n)
    rng = np.random.default_rng(seed)
    X = rng.choice(POOL[: int(rng.integers(2, POOL.size + 1))], size=(n, d))
    dup = rng.integers(0, n, size=(n // 4, 2))
    X[dup[:, 1]] = X[dup[:, 0]]
    if rng.random() < 0.5:
        X[:, int(rng.integers(0, d))] = rng.choice(POOL)
    y = rng.integers(0, k, size=n)
    y[rng.permutation(n)[:k]] = np.arange(k)
    return X, y, k


@given(st.integers(0, 2**32 - 1), st.integers(1, 60), st.integers(1, 4))
@settings(max_examples=30, deadline=None)
def test_presort_orders_rows_by_value_then_row_id(seed, n, d):
    # ties in row-id order are what keep boosting's running gradient sums,
    # and so its split gains, in the per-node search's summation order
    X, _, _ = _training_set(seed, n, d, 1)
    order = _presort(X)
    assert order.shape == (d, n)
    for f in range(d):
        assert order[f].tolist() == sorted(range(n), key=lambda i: (X[i, f], i))


def _assert_same_tree(got, want, bitwise_values=False):
    assert np.array_equal(got.feature, want.feature)
    assert got.threshold.tobytes() == want.threshold.tobytes()
    if bitwise_values:
        assert got.value.tobytes() == want.value.tobytes()
    else:
        assert np.array_equal(got.value, want.value)


@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 300),
    st.integers(1, 4),
    st.integers(1, 4),
    st.sampled_from([1, 2, 3, 7]),
    st.sampled_from([None, 1, 2, 5]),
    st.sampled_from([1, 200, tree_module._SCAN_CELLS]),
)
@settings(max_examples=60, deadline=None)
def test_decision_tree_matches_per_node_sort(seed, n, d, k, leaf, depth, scan_cells):
    # scan_cells below the node size scans a node's features in several parts
    X, y, k = _training_set(seed, n, d, k)
    params = TreeHyperparams(
        max_depth=depth, min_samples_split=max(2, leaf), min_samples_leaf=leaf
    )
    with mock.patch.object(tree_module, "_SCAN_CELLS", scan_cells):
        got = fit_tree(make_table(X, y), params).root
    _assert_same_tree(got, reference_tree.grow_gini(X, y, k, params))


@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 200),
    st.integers(2, 5),
    st.integers(2, 4),
    st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_forest_matches_per_node_sort(seed, n, d, k, bootstrap):
    X, y, k = _training_set(seed, n, d, k)
    m = d - 1  # below the feature count: each split samples features
    params = ForestParams(
        min_samples_leaf=2, min_samples_split=3,
        n_trees=3, features_per_split=m, bootstrap=bootstrap,
    )
    forest = fit_forest(make_table(X, y), params, seed=seed)
    want = reference_tree.forest_trees(X, y, k, 3, params, m, bootstrap, seed)
    for tree, reference in zip(forest.trees, want, strict=True):
        _assert_same_tree(tree, reference)


@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 200),
    st.integers(1, 4),
    st.integers(2, 3),
    st.sampled_from([0.0, 1.0]),
)
@settings(max_examples=25, deadline=None)
def test_boosting_matches_per_node_sort(seed, n, d, k, lam):
    X, y, k = _training_set(seed, n, d, k)
    params = GbtParams(n_rounds=3, learning_rate=0.5, max_depth=3, l2_lambda=lam)
    model = fit_gbt(make_table(X, y), params)
    want = reference_tree.gbt_trees(X, y, k, params)
    for round_trees, reference_round in zip(model.trees, want, strict=True):
        for tree, reference in zip(round_trees, reference_round, strict=True):
            _assert_same_tree(tree, reference, bitwise_values=True)


def _node_rows(tree, X):
    """Training rows reaching each node, walked from the root."""
    rows = [None] * tree.feature.size
    rows[0] = np.arange(X.shape[0])
    for node in range(tree.feature.size):
        if tree.feature[node] >= 0:
            at = rows[node]
            left = X[at, tree.feature[node]] <= tree.threshold[node]
            rows[node + 1], rows[tree.right[node]] = at[left], at[~left]
    return rows


@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 40),
    st.integers(1, 3),
    st.integers(2, 3),
    st.sampled_from([1, 2, 3]),
)
@settings(max_examples=40, deadline=None)
def test_every_split_is_the_oracle_split_of_its_node(seed, n, d, k, leaf):
    X, y, k = _training_set(seed, n, d, k)
    params = TreeHyperparams(min_samples_split=max(2, leaf), min_samples_leaf=leaf)
    tree = fit_tree(make_table(X, y), params).root
    for node, rows in enumerate(_node_rows(tree, X)):
        if tree.feature[node] >= 0:
            want = oracle_best_split(X[rows], y[rows], min_samples_leaf=leaf)
            assert want is not None
            assert (tree.feature[node], tree.threshold[node]) == want[:2]


_FIT_SETTINGS = st.tuples(
    st.integers(1, 9),  # leaf size
    st.integers(0, 8),  # split gate above the leaf size
    st.sampled_from([None, 1, 2, 3, 5]),
    st.sampled_from([0.0, 0.0, 0.002, 0.02]),
)


@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 300),
    st.integers(1, 4),
    st.integers(1, 4),
    st.lists(_FIT_SETTINGS, min_size=2, max_size=6),
    st.sampled_from([0, 1, 4, 9]),
)
@settings(max_examples=60, deadline=None)
def test_fits_sharing_a_split_cache_match_fresh_fits(seed, n, d, k, fits, max_leaf):
    # each fit meets the searches of earlier fits with other leaf sizes,
    # gates, depths and pruning strengths, and must not depend on them;
    # leaf sizes above the cache's max_leaf search one leaf size at a time;
    # a cache with max_leaf holds the presort every fit copies, a cache
    # without one leaves each fit to sort its own rows
    X, y, k = _training_set(seed, n, d, k)
    table = make_table(X, y)
    splits = SplitCache(table, max_leaf)
    assert (splits.order is None) == (max_leaf == 0)
    for leaf, more_gate, depth, alpha in fits:
        params = TreeHyperparams(
            max_depth=depth,
            min_samples_split=max(2, leaf) + more_gate,
            min_samples_leaf=leaf,
            ccp_alpha=alpha,
        )
        got = fit_tree(table, params, splits=splits).root
        _assert_same_tree(got, fit_tree(table, params).root, bitwise_values=True)
        want = reference_tree.grow_gini(X, y, k, params)
        _assert_same_tree(got, tree_module._prune(want, alpha) if alpha > 0.0 else want)


@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 160),
    st.integers(1, 4),
    st.integers(2, 4),
    st.integers(1, 40),
    st.sampled_from(["pool", "adjacent doubles", "mirrored"]),
    st.sampled_from([1, 7, 50, tree_module._SCAN_CELLS]),
)
@settings(max_examples=80, deadline=None)
def test_staircase_matches_the_search_at_every_leaf_size(
    seed, n, d, k, max_leaf, layout, scan_cells
):
    # scan_cells below the node size scans each feature in pieces, whose
    # near ties the staircase and the search gather chunk by chunk
    X, y, k = _training_set(seed, n, d, k)
    rng = np.random.default_rng(seed)
    if layout == "adjacent doubles":
        # midpoints of neighbouring doubles round onto the upper one
        X = 1.0 + rng.integers(0, 3, size=(n, d)) * np.spacing(1.0)
    elif layout == "mirrored":
        # equal features, and classes mirrored about the middle row: every
        # boundary ties exactly with its mirror image and across features
        X = np.repeat(np.arange(n, dtype=np.float64)[:, np.newaxis], d, axis=1)
        half = rng.integers(0, k, size=(n + 1) // 2)
        y = np.concatenate([half, half[: n // 2][::-1]])
        k = int(y.max()) + 1
    ids = tree_module._class_ids(y, k)
    counts = np.bincount(y, minlength=k)
    order = _presort(X)
    with mock.patch.object(tree_module, "_SCAN_CELLS", scan_cells):
        steps = tree_module._node_staircase(X, ids, counts, order, max_leaf)
    highs = [high for high, _, _ in steps]
    assert highs == sorted(set(highs)) and highs[-1] <= max_leaf
    for leaf in range(1, min(max_leaf, n // 2) + 1):
        high, feature, threshold = next(step for step in steps if leaf <= step[0])
        best = tree_module._node_split(X, ids, counts, order, leaf, np.arange(d))
        if best is None:
            assert feature == -1, leaf
        else:
            assert (feature, threshold) == (best.feature, best.threshold), leaf


def test_a_split_cache_from_another_training_set_is_rejected():
    # a cache is made for one table object: other contents and equal
    # copies are both another training set
    X, y, _ = _training_set(7, 60, 3, 3)
    table = make_table(X, y)
    splits = SplitCache(table)
    fit_tree(table, TreeHyperparams(), splits=splits)
    relabelled = np.where(y == 0, 1, y)  # other root class counts
    for other in (
        make_table(X, relabelled),
        make_table(X[:, :2], y),
        make_table(X, y),
        table.take_rows(np.arange(60)),
    ):
        with pytest.raises(DataError, match="another training set"):
            fit_tree(other, TreeHyperparams(min_samples_leaf=2), splits=splits)
    fit_tree(table, TreeHyperparams(min_samples_leaf=2), splits=splits)
