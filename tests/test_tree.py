"""Tree growth: impurity, exact split selection, stopping rules, pruning."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowgate.errors import DataError
from flowgate.models.tree import (
    CutAccuracy,
    DecisionTreeModel,
    SplitCache,
    Tree,
    TreeHyperparams,
    _prune,
    _route,
    fit_tree,
    gini_impurity,
    predict_tree,
)

from conftest import best_split, conflict_free_table, make_table, oracle_best_split


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
    got = best_split(np.arange(4), make_table(X, y))
    assert got is not None
    feature, threshold, decrease = got
    assert feature == 0
    assert threshold == 6.0
    assert decrease == pytest.approx(0.5, abs=1e-15)


def test_threshold_tie_prefers_the_lower_one():
    # 0|1 1|0 splits at 0.5 and 2.5 score identically
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 1, 1, 0])
    got = best_split(np.arange(4), make_table(X, y))
    assert got is not None
    feature, threshold, decrease = got
    assert (feature, threshold) == (0, 0.5)
    assert decrease == pytest.approx(1 / 6, abs=1e-15)


def test_feature_tie_prefers_the_lower_feature():
    col = np.array([1.0, 2.0, 10.0, 11.0])
    X = np.column_stack([col, col])
    y = np.array([0, 0, 1, 1])
    got = best_split(np.arange(4), make_table(X, y))
    assert got is not None
    assert got[0] == 0


def test_pure_node_has_no_split():
    X = np.array([[1.0], [2.0], [3.0]])
    assert best_split(np.arange(3), make_table(X, np.zeros(3))) is None


def test_identical_rows_have_no_split():
    X = np.ones((4, 2))
    y = np.array([0, 1, 0, 1])
    assert best_split(np.arange(4), make_table(X, y)) is None


def test_min_samples_leaf_blocks_narrow_splits():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 0, 1, 1])
    params = TreeHyperparams(min_samples_leaf=3, min_samples_split=3)
    assert best_split(np.arange(4), make_table(X, y), params=params) is None


def test_split_on_row_subset():
    X = np.array([[1.0], [2.0], [10.0], [11.0], [50.0]])
    y = np.array([0, 0, 1, 1, 0])
    got = best_split(np.array([0, 1, 2, 3]), make_table(X, y))
    assert got is not None
    assert got[1] == 6.0


def test_no_split_when_nothing_improves():
    # any threshold keeps both sides at the same half-half mix
    X = np.array([[0.0], [0.0], [1.0], [1.0]])
    y = np.array([0, 1, 0, 1])
    assert best_split(np.arange(4), make_table(X, y)) is None


def test_exact_tie_is_kept_when_rounding_ranks_it_lower():
    # the splits at 4.5 and 5.5 score exactly 34/3, but their float scores
    # round to 11.333333333333332 and ...334; the exact tie goes to 4.5
    X = np.array([
        [9, 0], [0, 4], [0, 1], [11, 6], [5, 5], [5, 5], [5, 5], [9, 10], [6, 7],
        [11, 0], [0, 11], [8, 0], [5, 2], [4, 4], [7, 11], [3, 8], [11, 11],
        [2, 8], [5, 5], [1, 4], [1, 5], [4, 2], [9, 7], [9, 11], [0, 4],
    ], dtype=np.float64)
    y = np.array([0, 2, 1, 2, 2, 2, 0, 0, 0, 0, 2, 0, 1, 2, 0, 2, 0, 1, 0, 0, 1, 2, 1, 2, 2])
    want = oracle_best_split(X, y)
    assert want[:2] == (0, 4.5)
    got = best_split(np.arange(y.size), make_table(X, y))
    assert got[:2] == want[:2]
    assert got[2] == pytest.approx(want[2], rel=1e-12, abs=1e-15)


_ABOVE_ONE = np.nextafter(1.0, 2.0)
ORACLE_POOL = np.array([0.0, 1.0, _ABOVE_ONE, np.nextafter(_ABOVE_ONE, 2.0), 2.0, 3.0, 4.0])


def test_adjacent_doubles_do_not_hide_a_real_split():
    # b|c cannot split (its midpoint rounds up to c) and must not set the
    # score that the realizable split on feature 1 is measured against
    b = _ABOVE_ONE
    c = np.nextafter(b, 2.0)
    X = np.array([[b, 0], [b, 0], [b, 1], [c, 1], [c, 1], [c, 1]])
    y = np.array([0, 0, 0, 1, 1, 1])
    assert oracle_best_split(X, y) == (1, 0.5, 0.25)
    assert best_split(np.arange(6), make_table(X, y)) == (1, 0.5, 0.25)


def _exact_argmax(X, y):
    """(feature, threshold) of the exactly best boundary over all rows, by
    Fraction scores; ties go to the lowest feature, then threshold."""
    counts = np.bincount(y)
    best = None
    for f in range(X.shape[1]):
        order = np.argsort(X[:, f], kind="stable")
        values = X[order, f]
        left = np.cumsum(np.eye(counts.size, dtype=np.int64)[y[order]], axis=0)
        for j in np.flatnonzero(values[1:] != values[:-1]):
            mid = (values[j] + values[j + 1]) / 2.0
            nl = j + 1
            l2 = sum(int(c) ** 2 for c in left[j])
            r2 = sum(int(c) ** 2 for c in counts - left[j])
            score = Fraction(l2, nl) + Fraction(r2, y.size - nl)
            if best is None or score > best[0]:
                best = (score, f, float(mid))
    return best[1:]


def test_one_minority_row_among_thousands_splits_at_the_exact_argmax():
    # the lone minority row sits mid-range on every feature: each boundary
    # scores n - 2 + 2/m, m the size of the minority row's side, so thousands
    # of boundaries lie within 1e-9 of the best, relatively, and the
    # mirrored features 1 and 2 tie exactly; the narrow near-tie window
    # must still hold the exact argmax, also in a fit through a split cache
    rng = np.random.default_rng(11)
    n = 20_001
    grid = rng.integers(0, 40, size=n).astype(np.float64)
    X = np.column_stack([rng.permutation(n).astype(np.float64), grid, 39.0 - grid])
    y = np.zeros(n, dtype=np.int64)
    minority = int(np.flatnonzero(X[:, 0] == n // 2)[0])
    X[minority, 1:] = (20.0, 19.0)
    y[minority] = 1
    want = _exact_argmax(X, y)
    table = make_table(X, y)
    assert best_split(np.arange(n), table)[:2] == want
    stump = fit_tree(table, TreeHyperparams(max_depth=1), splits=SplitCache(table, presort=True))
    assert (int(stump.root.feature[0]), float(stump.root.threshold[0])) == want


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_split_agrees_with_exhaustive_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 40))
    d = int(rng.integers(1, 4))
    k = int(rng.integers(2, 4))
    # low-cardinality grid values force plenty of exact ties; 1 and the two
    # doubles above it are adjacent, so their midpoints cannot split
    X = ORACLE_POOL[rng.integers(0, ORACLE_POOL.size, size=(n, d))]
    y = rng.integers(0, k, size=n)
    msl = int(rng.integers(1, 3))
    got = best_split(
        np.arange(n),
        make_table(X, y),
        params=TreeHyperparams(min_samples_leaf=msl, min_samples_split=max(2, msl)),
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
    assert model.root.feature.tolist() == [-1]
    assert predict_tree(model, table).tolist() == [0] * 30


def test_max_depth_one_is_a_stump():
    table = conflict_free_table(100, 2, 2, seed=5)
    model = fit_tree(table, TreeHyperparams(max_depth=1))
    assert model.root.depth() <= 1
    assert model.root.n_leaves() <= 2


def test_min_samples_split_stops_growth():
    table = conflict_free_table(40, 2, 2, seed=8)
    model = fit_tree(table, TreeHyperparams(min_samples_split=41))
    assert model.root.feature.tolist() == [-1]


def test_leaf_prediction_majority_and_ties():
    def one_leaf(counts):
        tree = Tree(np.array([counts]), [-1], [np.nan])
        return DecisionTreeModel(tree, TreeHyperparams(), len(counts), 1)

    X = np.zeros((3, 1))
    assert predict_tree(one_leaf([0, 7]), X).tolist() == [1, 1, 1]
    assert predict_tree(one_leaf([3, 3]), X).tolist() == [0, 0, 0]


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
        tree = model.root
        stack = [(0, np.arange(X.shape[0]))]
        while stack:
            node, rows = stack.pop()
            if tree.feature[node] < 0:
                assert rows.size >= params.min_samples_leaf
                continue
            mask = X[rows, tree.feature[node]] <= tree.threshold[node]
            assert rows[mask].size >= params.min_samples_leaf
            assert rows[~mask].size >= params.min_samples_leaf
            stack.append((node + 1, rows[mask]))
            stack.append((tree.right[node], rows[~mask]))


def test_node_counts_sum_to_children():
    table = conflict_free_table(120, 2, 3, seed=13)
    tree = fit_tree(table).root
    stack = [0]
    while stack:
        node = stack.pop()
        if tree.feature[node] < 0:
            continue
        left, right = node + 1, tree.right[node]
        assert np.array_equal(tree.value[node], tree.value[left] + tree.value[right])
        stack.extend([left, right])


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
        fit_tree(make_table(np.zeros((0, 2)), np.zeros(0)))
    with pytest.raises(DataError):
        fit_tree(make_table(np.zeros((3, 0)), np.zeros(3)))
    with pytest.raises(DataError):
        best_split(np.array([], dtype=np.int64), make_table(np.zeros((3, 1)), np.zeros(3)))


# -- array layout and routing -------------------------------------------------------


def _subtree_end(tree, node):
    """One past the last preorder node under ``node``, found by recursion."""
    if tree.feature[node] < 0:
        return node + 1
    return _subtree_end(tree, _subtree_end(tree, node + 1))


def _walk(tree, x, max_depth=None, min_samples_split=None):
    """Reference router: one row, one node at a time."""
    node = depth = 0
    while not (
        tree.feature[node] < 0
        or (max_depth is not None and depth >= max_depth)
        or (min_samples_split is not None and tree.value[node].sum() < min_samples_split)
    ):
        if x[tree.feature[node]] <= tree.threshold[node]:
            node += 1
        else:
            node = _subtree_end(tree, node + 1)
        depth += 1
    return node


def test_tree_derives_right_children_and_depths():
    #        0
    #      1    4
    #     2 3  5 6
    feature = [0, 1, -1, -1, 1, -1, -1]
    tree = Tree(np.ones((7, 2), dtype=np.int64), feature, np.zeros(7))
    assert tree.right.tolist() == [4, 3, -1, -1, 6, -1, -1]
    assert tree.node_depth.tolist() == [0, 1, 2, 2, 1, 2, 2]
    assert (tree.depth(), tree.n_leaves()) == (2, 4)


def test_tree_rejects_arrays_that_are_not_one_preorder_tree():
    with pytest.raises(DataError):
        Tree(np.ones((1, 2)), [0], [0.5])  # a split without children
    with pytest.raises(DataError):
        Tree(np.ones((2, 2)), [-1, -1], [np.nan, np.nan])  # two roots
    with pytest.raises(DataError):
        Tree(np.ones((2, 2)), [-1], [np.nan])  # one value too many


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_route_matches_a_scalar_walk(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 120))
    d = int(rng.integers(1, 4))
    X = rng.integers(0, 6, size=(n, d)).astype(np.float64)
    y = rng.integers(0, int(rng.integers(2, 4)), size=n)
    tree = fit_tree(make_table(X, y)).root
    # half-integer probes land exactly on the midpoint thresholds too
    probe = rng.integers(-2, 14, size=(60, d)) / 2.0
    assert _route(tree, probe).tolist() == [_walk(tree, x) for x in probe]
    empty = _route(tree, np.zeros((0, d)))
    assert empty.shape == (0,) and empty.dtype == np.int64


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_cut_accuracy_matches_a_scalar_walk(seed):
    # the accuracy of the walk's stopping nodes' classes at every cut
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 120))
    d = int(rng.integers(1, 4))
    X = rng.integers(0, 6, size=(n, d)).astype(np.float64)
    k = int(rng.integers(2, 4))
    y = rng.integers(0, k, size=n)
    leaf = int(rng.integers(1, 4))
    params = TreeHyperparams(min_samples_split=max(2, leaf), min_samples_leaf=leaf)
    tree = fit_tree(make_table(X, y), params).root
    probe = rng.integers(-2, 14, size=(60, d)) / 2.0
    labels = rng.integers(0, tree.value.shape[1], size=60)
    scores = CutAccuracy(tree, probe, labels)
    majority = np.argmax(tree.value, axis=1)
    for max_depth in (1, int(rng.integers(1, 8)), 64):
        for min_split in (2, int(rng.integers(2, n + 2)), n + 1):
            stops = [_walk(tree, x, max_depth, min_split) for x in probe]
            want = int(np.count_nonzero(majority[stops] == labels)) / labels.size
            assert scores.accuracy(max_depth, min_split) == want


# -- pruning -----------------------------------------------------------------------


def test_huge_alpha_collapses_to_root_leaf():
    table = conflict_free_table(80, 2, 2, seed=3)
    model = fit_tree(table, TreeHyperparams(ccp_alpha=10.0))
    assert model.root.feature.tolist() == [-1]


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


def _reference_prune(tree, ccp_alpha):
    """Weakest-link pruning by recursion over node ids: the kept node ids and
    the set of nodes collapsed into leaves."""
    n_total = int(tree.value[0].sum())
    collapsed = set()

    def risk(i):
        return gini_impurity(tree.value[i]) * (int(tree.value[i].sum()) / n_total)

    def children(i):
        if tree.feature[i] < 0 or i in collapsed:
            return ()
        return i + 1, _subtree_end(tree, i + 1)

    def stats(i):
        if not children(i):
            return risk(i), 1
        (left_r, left_l), (right_r, right_l) = (stats(c) for c in children(i))
        return left_r + right_r, left_l + right_l

    def preorder(i):
        return [i] + [j for c in children(i) for j in preorder(c)]

    while children(0):
        g = {}
        for i in preorder(0):
            if children(i):
                r_subtree, leaves = stats(i)
                g[i] = (risk(i) - r_subtree) / (leaves - 1)
        weakest = min(g.values())
        if weakest > ccp_alpha:
            break
        collapsed |= {i for i, v in g.items() if v == weakest}
    return preorder(0), collapsed


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_prune_matches_recursive_weakest_link_pruning(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 150))
    d = int(rng.integers(1, 4))
    X = rng.integers(0, 6, size=(n, d)).astype(np.float64)
    y = rng.integers(0, int(rng.integers(2, 4)), size=n)
    tree = fit_tree(make_table(X, y)).root
    for ccp_alpha in (0.0, 0.002, float(rng.uniform(0.0, 0.05)), 1.0):
        pruned = _prune(tree, ccp_alpha)
        keep, collapsed = _reference_prune(tree, ccp_alpha)
        feature = [-1 if i in collapsed else int(tree.feature[i]) for i in keep]
        assert pruned.feature.tolist() == feature
        assert np.array_equal(pruned.value, tree.value[keep])
        internal = pruned.feature >= 0
        assert pruned.threshold[internal].tolist() == tree.threshold[keep][internal].tolist()


def test_prune_collapses_tied_weakest_links_together():
    # two mirror-image subtrees under the root: their weakest-link g is equal
    #          0 [8,8]
    #    1 [6,2]      4 [2,6]
    # 2 [5,0] 3 [1,2]  5 [2,1] 6 [0,5]
    value = np.array([[8, 8], [6, 2], [5, 0], [1, 2], [2, 6], [2, 1], [0, 5]])
    tree = Tree(value, [0, 1, -1, -1, 1, -1, -1], [0.5, 0.25, np.nan, np.nan, 0.75, np.nan, np.nan])
    g = gini_impurity([6, 2]) * (8 / 16) - (0.0 + gini_impurity([1, 2]) * (3 / 16))
    assert g == gini_impurity([2, 6]) * (8 / 16) - (gini_impurity([2, 1]) * (3 / 16) + 0.0)

    untouched = _prune(tree, np.nextafter(g, 0.0))
    assert untouched.feature.tolist() == tree.feature.tolist()
    pruned = _prune(tree, g)
    assert pruned.feature.tolist() == [0, -1, -1]
    assert pruned.value.tolist() == [[8, 8], [6, 2], [2, 6]]
    assert pruned.threshold[0] == 0.5
    assert np.isnan(pruned.threshold[1:]).all()
