"""Model persistence: bit-exact round trips and format guards."""

import functools
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from flowgate.errors import DataError
from flowgate.models.baseline import majority_baseline
from flowgate.models.forest import ForestParams, fit_forest, predict_forest
from flowgate.models.gbt import GbtParams, fit_gbt, predict_scores
from flowgate.models.serialize import (
    FORMAT_NAME,
    FORMAT_VERSION,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)
from flowgate.models.tree import TreeHyperparams, fit_tree, predict_tree

from conftest import conflict_free_table, make_table, malformed_model_documents

PINNED = Path(__file__).parent / "data"


def _table():
    return conflict_free_table(150, 4, 3, seed=31)


def test_tree_round_trip_is_bit_exact(tmp_path):
    table = _table()
    model = fit_tree(table, TreeHyperparams(max_depth=6, ccp_alpha=1e-4))
    path = tmp_path / "tree.json"
    save_model(model, path)
    again = load_model(path)
    assert again.params == model.params
    assert np.array_equal(predict_tree(again, table), predict_tree(model, table))

    def thresholds(tree):
        return tree.threshold[tree.feature >= 0].tolist()

    assert thresholds(again.root) == thresholds(model.root)


def test_forest_round_trip(tmp_path):
    table = _table()
    model = fit_forest(table, ForestParams(n_trees=5), seed=3)
    path = tmp_path / "forest.json"
    save_model(model, path)
    again = load_model(path)
    assert len(again.trees) == 5
    assert again.seed == model.seed
    assert again.params.bootstrap == model.params.bootstrap
    assert again.params == model.params
    assert np.array_equal(predict_forest(again, table), predict_forest(model, table))


def test_gbt_round_trip_scores_bitwise(tmp_path):
    table = _table()
    model = fit_gbt(table, GbtParams(n_rounds=3, learning_rate=0.17))
    path = tmp_path / "gbt.json"
    save_model(model, path)
    again = load_model(path)
    assert again.params == model.params
    assert np.array_equal(predict_scores(again, table), predict_scores(model, table))
    assert np.array_equal(again.base_score, model.base_score)


def test_baseline_round_trip(tmp_path):
    model = majority_baseline(_table())
    path = tmp_path / "base.json"
    save_model(model, path)
    again = load_model(path)
    assert again == model


def test_document_header():
    doc = model_to_dict(majority_baseline(_table()))
    assert doc["format"] == FORMAT_NAME
    assert doc["version"] == FORMAT_VERSION
    assert doc["kind"] == "majority_baseline"


def test_rejects_foreign_format():
    with pytest.raises(DataError, match="not a flowgate-model document"):
        model_from_dict({"format": "other", "version": 1, "kind": "decision_tree"})


def test_rejects_future_version():
    doc = model_to_dict(majority_baseline(_table()))
    doc["version"] = FORMAT_VERSION + 1
    with pytest.raises(DataError, match="version"):
        model_from_dict(doc)


def test_rejects_unknown_kind():
    doc = model_to_dict(majority_baseline(_table()))
    doc["kind"] = "perceptron"
    with pytest.raises(DataError, match="kind"):
        model_from_dict(doc)


@pytest.mark.parametrize("name", sorted(malformed_model_documents()))
def test_a_malformed_model_file_is_a_data_error_naming_it(tmp_path, name):
    doc, message = malformed_model_documents()[name]
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(DataError) as caught:
        load_model(path)
    assert str(caught.value).startswith(f"{path}: ")
    assert message in str(caught.value)


def test_saved_file_is_plain_json(tmp_path):
    model = fit_tree(_table(), TreeHyperparams(max_depth=3))
    path = tmp_path / "m.json"
    save_model(model, path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["kind"] == "decision_tree"
    # learned thresholds are stored as hex strings, not lossy decimals
    text = path.read_text(encoding="utf-8")
    assert "0x1." in text


def test_a_forest_save_allocates_about_the_file_it_writes(tmp_path):
    # the document is streamed to the file, one tree's arrays at a time, not
    # built as one text: measured 0.31x the file here, 5.71x when the save
    # built the whole text of the same document
    rng = np.random.default_rng(5)
    table = make_table(rng.normal(size=(1000, 6)), rng.integers(0, 3, size=1000))
    model = fit_forest(table, ForestParams(n_trees=10), seed=1)
    path = tmp_path / "forest.json"
    save_model(model, path)
    tracemalloc.start()
    try:
        save_model(model, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert peak <= 1.5 * size, peak / size


def test_a_save_onto_a_directory_is_a_data_error_and_leaves_no_file(tmp_path):
    model = fit_tree(_table(), TreeHyperparams(max_depth=3))
    (tmp_path / "m.json").mkdir()
    with pytest.raises(DataError, match="cannot write .*m.json: Is a directory"):
        save_model(model, tmp_path / "m.json")
    # no partial file is left beside it
    assert [p.name for p in tmp_path.iterdir()] == ["m.json"]


@functools.cache
def _chain_tree(n_rows):
    """A tree of depth n_rows - 1: one feature 0..n_rows-1, classes alternating."""
    X = np.arange(n_rows, dtype=np.float64)[:, np.newaxis]
    return fit_tree(make_table(X, np.arange(n_rows) % 2))


def test_a_depth_1999_tree_round_trips_bit_for_bit(tmp_path):
    # format 1 nested each node's children, so a tree this deep could not
    # be written as JSON
    model = _chain_tree(2000)
    assert model.root.depth() == 1999
    path = tmp_path / "deep.json"
    save_model(model, path)
    again = load_model(path)
    for name in ("value", "feature", "threshold"):
        assert np.array_equal(getattr(again.root, name), getattr(model.root, name), equal_nan=True)
    X = np.arange(-1, 2001, 0.5)[:, np.newaxis]
    assert np.array_equal(predict_tree(again, X), predict_tree(model, X))


def test_a_model_file_grows_linearly_with_its_tree(tmp_path):
    # 4x the nodes: linear growth gives 4x the bytes, quadratic growth 16x
    # (format 1 indented each node by its depth)
    sizes = []
    for n_rows in (500, 2000):
        save_model(_chain_tree(n_rows), tmp_path / "chain.json")
        sizes.append((tmp_path / "chain.json").stat().st_size)
    assert sizes[1] <= 4.5 * sizes[0], sizes


def test_a_document_too_deep_for_json_is_not_loaded(tmp_path):
    # any value nested past the parser's limit raises RecursionError
    depth = 200_000
    header = {k: v for k, v in model_to_dict(_chain_tree(2)).items() if k != "root"}
    root = "[" * depth + "]" * depth
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(header)[:-1] + ', "root": ' + root + "}", encoding="utf-8")
    with pytest.raises(DataError) as caught:
        load_model(path)
    assert str(caught.value).startswith(f"{path}: ")
    assert "nested too deeply" in str(caught.value)


def test_a_depth_499_tree_round_trips(tmp_path):
    model = _chain_tree(500)
    path = tmp_path / "tree.json"
    save_model(model, path)
    again = load_model(path).root
    assert again.depth() == 499
    for name in ("value", "feature", "threshold"):
        assert np.array_equal(getattr(again, name), getattr(model.root, name), equal_nan=True)


# -- pinned files --------------------------------------------------------------
# tests/data/model_v2_<kind>.json were fitted on _pinned_table() with the
# hyperparameters in _pinned_fit and written by the format-2 writer.


def _pinned_table():
    rng = np.random.default_rng(404)
    X = rng.normal(size=(48, 3)).round(2)
    y = (X[:, 0] > 0).astype(np.int64) + (X[:, 1] + X[:, 2] > 0.5)
    return make_table(X, y)


def _pinned_probe():
    return np.random.default_rng(405).normal(size=(12, 3)).round(2)


def _pinned_fit(kind, table):
    if kind == "baseline":
        return majority_baseline(table)
    if kind == "dt":
        return fit_tree(table, TreeHyperparams(max_depth=4, ccp_alpha=0.01))
    if kind == "rf":
        return fit_forest(table, ForestParams(n_trees=3, max_depth=3), seed=7)
    return fit_gbt(table, GbtParams(n_rounds=2, max_depth=2, learning_rate=0.5))


PINNED_PREDICTIONS = {
    "baseline": [1] * 12,
    "dt": [1, 0, 1, 2, 2, 1, 2, 1, 1, 1, 1, 1],
    "rf": [1, 1, 1, 2, 2, 1, 2, 1, 1, 1, 1, 1],
    "gbt": [1, 0, 1, 1, 2, 1, 2, 1, 2, 1, 1, 1],
}


@pytest.mark.parametrize("kind", sorted(PINNED_PREDICTIONS))
def test_a_model_predicts_a_matrix_as_the_table_it_came_from(kind):
    table = _pinned_table()
    model = _pinned_fit(kind, table)
    matrix = np.ascontiguousarray(table.feature_matrix())
    assert model.predict(matrix).tolist() == model.predict(table).tolist()


@pytest.mark.parametrize("kind", sorted(PINNED_PREDICTIONS))
def test_a_model_counts_the_classes_of_its_table_not_of_its_rows(kind):
    pinned = _pinned_table()
    table = make_table(pinned.feature_matrix(), pinned.labels, ("a", "b", "c", "unseen"))
    assert _pinned_fit(kind, table).n_classes == table.n_classes == 4


@pytest.mark.parametrize("kind", sorted(PINNED_PREDICTIONS))
def test_pinned_v2_file_is_reproduced_byte_for_byte(kind, tmp_path):
    pinned = PINNED / f"model_v2_{kind}.json"
    expected = pinned.read_text(encoding="utf-8")
    assert load_model(pinned).predict(_pinned_probe()).tolist() == PINNED_PREDICTIONS[kind]
    # a fresh fit and the pinned file loaded and saved again both write its bytes
    save_model(_pinned_fit(kind, _pinned_table()), tmp_path / "refit.json")
    assert (tmp_path / "refit.json").read_text(encoding="utf-8") == expected
    save_model(load_model(pinned), tmp_path / "again.json")
    assert (tmp_path / "again.json").read_text(encoding="utf-8") == expected
