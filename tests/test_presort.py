"""Presorted growth grows the trees of the per-node sort search bit for bit,
and every split it makes is the exhaustive oracle's split of that node."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_fits_sharing_a_split_cache_match_fresh_fits(seed, n, d, k, fits, presort):
    # each fit meets the searches of earlier fits with other leaf sizes,
    # gates, depths and pruning strengths, and must not depend on them;
    # a cache with presort holds the presort every fit copies, a cache
    # without it leaves each fit to sort its own rows
    X, y, k = _training_set(seed, n, d, k)
    table = make_table(X, y)
    splits = SplitCache(table, presort)
    assert (splits.order is None) == (not presort)
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


def _layout_set(seed, n, d, k, layout):
    """(X, labels, class count) of a ``_training_set`` draw, or laid out as
    ``layout`` names."""
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
    return X, y, k


@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 160),
    st.integers(1, 4),
    st.integers(2, 4),
    st.sampled_from(["ascending", "descending", "shuffled"]),
    st.sampled_from(["pool", "adjacent doubles", "mirrored"]),
    st.sampled_from([7, tree_module._SCAN_CELLS]),
)
@settings(max_examples=80, deadline=None)
def test_a_split_cache_answers_leaf_sizes_in_any_order_as_fresh_searches(
    seed, n, d, k, leaf_order, layout, scan_cells
):
    # one path asked for every leaf size 1..min(50, n // 2): each answer
    # comes from a held search whose leaf sizes [l, m] cover it, or from a
    # new search, and must be the fresh search's split either way; scan_cells
    # below the node size scans each feature in pieces
    X, y, k = _layout_set(seed, n, d, k, layout)
    splits = SplitCache(make_table(X, y))
    ids = tree_module._class_ids(y, k)
    counts = np.bincount(y, minlength=k)
    order = _presort(X)
    leaves = list(range(1, min(50, n // 2) + 1))
    if leaf_order == "descending":
        leaves.reverse()
    elif leaf_order == "shuffled":
        np.random.default_rng(seed).shuffle(leaves)
    with mock.patch.object(tree_module, "_SCAN_CELLS", scan_cells):
        for leaf in leaves:
            got = splits.split((), leaf, counts, order)
            best = tree_module._node_split(X, ids, counts, order, leaf, np.arange(d))
            assert got == (None if best is None else (best.feature, best.threshold)), leaf


# -- boundary points ------------------------------------------------------------
# The scan keeps, of each range of boundaries that moves rows of one class, only
# the first and the last that can split and are legal. These layouts put those
# ends where a wrong range shows: class runs cut by ties and by the legality
# edges, a majority class of 90% or more, a few rows of a minority class at one
# end (so the best cut under a larger leaf size lies on a legality edge), equal
# values of mixed classes, adjacent doubles, and values whose midpoints
# overflow. Each search runs with both scans (counting every boundary of a
# small chunk, and keeping the run ends: all_boundaries 0), and in one piece or
# in pieces of 7 rows.

HUGE = np.array([-1.7e308, -1.0, 0.0, 1.0, 1.5e308, 1.6e308, 1.7e308, np.finfo(np.float64).max])

RUN_LAYOUTS = [
    "runs", "majority", "low minority", "high minority",
    "mixed blocks", "adjacent doubles", "huge",
]


def _run_set(seed, n, d, k, layout):
    """(X, class ids, class count) of n rows and d features, laid out as
    ``layout`` names; the classes are those of k draws, renumbered."""
    rng = np.random.default_rng(seed)
    # distinct values, or 2 to 40 levels, whose ties cut class runs
    if rng.random() < 0.5 or layout.endswith("minority"):
        X = rng.random((n, d))
    else:
        X = rng.integers(0, rng.integers(2, 41), size=(n, d)).astype(np.float64)
    if layout == "runs":
        # runs of one class along the first feature's order, of random lengths
        lengths = rng.integers(1, max(2, n // 3), size=n)
        y = np.repeat(rng.integers(0, k, size=n), lengths)[:n][np.argsort(np.argsort(X[:, 0]))]
    elif layout == "majority":
        y = np.zeros(n, dtype=np.int64)
        y[rng.permutation(n)[: max(1, n // 10)]] = rng.integers(1, max(2, k), size=max(1, n // 10))
    elif layout.endswith("minority"):
        y = np.zeros(n, dtype=np.int64)
        by_value = np.argsort(X[:, 0])
        if layout == "high minority":
            by_value = by_value[::-1]
        y[by_value[: int(rng.integers(1, max(2, n // 8)))]] = 1
    elif layout == "mixed blocks":
        X = rng.integers(0, 4, size=(n, d)).astype(np.float64)
        y = rng.integers(0, k, size=n)
    elif layout == "adjacent doubles":
        X = 1.0 + rng.integers(0, 4, size=(n, d)) * np.spacing(1.0)
        y = rng.integers(0, k, size=n)
    else:
        X = rng.choice(HUGE, size=(n, d))
        y = rng.integers(0, k, size=n)
    y = np.unique(y, return_inverse=True)[1].ravel()
    return X, y, int(y.max()) + 1


def _scans(all_boundaries, scan_cells):
    return mock.patch.multiple(
        tree_module, _ALL_BOUNDARIES=all_boundaries, _SCAN_CELLS=scan_cells
    )


@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 60),
    st.integers(1, 3),
    st.integers(2, 4),
    st.sampled_from(RUN_LAYOUTS),
    st.integers(0, 2**16),
    st.booleans(),
    st.sampled_from([0, tree_module._ALL_BOUNDARIES]),
    st.sampled_from([7, tree_module._SCAN_CELLS]),
)
# ties that cut class runs, where the best cut is the last splittable
# boundary before a class change, or the first after one
@example(14, 30, 2, 4, "runs", 52156, False, 0, tree_module._SCAN_CELLS)
@example(1, 29, 2, 4, "majority", 63939, True, 0, 7)
# two equal values of -1.7e308, whose midpoint overflows to -inf
@example(62, 50, 1, 3, "huge", 59850, True, 0, 7)
@settings(max_examples=200, deadline=None)
def test_the_search_over_run_ends_is_the_oracle_split(
    seed, n, d, k, layout, leaf_draw, sample, all_boundaries, scan_cells
):
    # any leaf size up to n/2; with sample, a forest's sorted feature sample
    X, y, k = _run_set(seed, n, d, k, layout)
    leaf = 1 + leaf_draw % max(1, n // 2)
    features = np.arange(d)
    if sample and d > 1:
        features = np.sort(np.random.default_rng(seed).choice(d, size=d - 1, replace=False))
    ids = tree_module._class_ids(y, k)
    with _scans(all_boundaries, scan_cells):
        got = tree_module._node_split(X, ids, np.bincount(y, minlength=k), _presort(X), leaf, features)
    want = oracle_best_split(X[:, features], y, min_samples_leaf=leaf)
    if want is None:
        assert got is None
    else:
        assert (got.feature, got.threshold) == (features[want[0]], want[1])


@given(
    st.integers(0, 2**32 - 1),
    st.one_of(st.integers(2, 40), st.integers(100, 130)),
    st.integers(1, 2),
    st.integers(2, 4),
    st.sampled_from(RUN_LAYOUTS),
    st.lists(st.integers(1, 60), max_size=2),
    st.sampled_from([0, tree_module._ALL_BOUNDARIES]),
    st.sampled_from([7, tree_module._SCAN_CELLS]),
)
@example(7, 120, 1, 2, "low minority", [], 0, tree_module._SCAN_CELLS)
@example(7, 120, 1, 2, "high minority", [], 0, tree_module._SCAN_CELLS)
@example(8, 119, 2, 3, "runs", [49, 50], 0, 7)
@settings(max_examples=120, deadline=None)
def test_the_search_over_run_ends_nests_over_leaf_sizes_and_matches_the_oracle(
    seed, n, d, k, layout, oracle_leaves, all_boundaries, scan_cells
):
    # every leaf size 1..min(50, n // 2), the tuning box's: the legality
    # edges l - 1 and n - 1 - l of a node of over 100 rows cut through its
    # class runs. A split cache reuses a search under l for every leaf size
    # through its split's smaller side m (for every larger leaf size when
    # no split improves), so the searches under l + 1..m must agree with
    # it; the oracle checks the widest leaf size and a few drawn ones
    X, y, k = _run_set(seed, n, d, k, layout)
    ids = tree_module._class_ids(y, k)
    counts = np.bincount(y, minlength=k)
    order = _presort(X)
    top = min(50, n // 2)
    with _scans(all_boundaries, scan_cells):
        found = [
            tree_module._node_split(X, ids, counts, order, leaf, np.arange(d))
            for leaf in range(1, top + 1)
        ]
    splits = [None if best is None else (best.feature, best.threshold) for best in found]
    for leaf, (best, split) in enumerate(zip(found, splits), start=1):
        held = top
        if best is not None:
            held = min(best.n_left, n - best.n_left, top)
            assert held >= leaf, leaf
        assert splits[leaf - 1 : held] == [split] * (held - leaf + 1), leaf
        if leaf == top or leaf in oracle_leaves:
            want = oracle_best_split(X, y, min_samples_leaf=leaf)
            assert split == (None if want is None else want[:2]), leaf


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
