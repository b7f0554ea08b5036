"""Column stats and table immutability."""

import numpy as np
import pytest

from flowgate.dataset import (
    KIND_LABEL,
    KIND_NUMERIC,
    ColumnSchema,
    ColumnarTable,
    LabelEncoding,
    class_distribution,
    column_stats,
    validate_schema,
)
from flowgate.errors import DataError

from conftest import make_table


def test_column_stats_sample_std():
    table = make_table(np.array([[1.0], [2.0], [3.0]]), np.array([0, 0, 1]))
    col = column_stats(table).column("f00")
    assert col.minimum == 1.0
    assert col.maximum == 3.0
    assert col.mean == 2.0
    assert col.std == 1.0  # ddof=1: sqrt(((1)^2 + 0 + 1^2)/2)


def test_column_stats_constant_and_two_point():
    X = np.array([[5.0, 0.0], [5.0, 10.0], [5.0, 0.0]])
    table = make_table(X, np.array([0, 1, 0]))
    summary = column_stats(table)
    assert summary.column("f00").std == 0.0
    assert summary.column("f00").distinct == 1
    # two-point sample std on {0, 10} restricted to the two distinct rows
    two = make_table(np.array([[0.0], [10.0]]), np.array([0, 1]))
    assert column_stats(two).column("f00").std == pytest.approx(
        7.0710678118654755, abs=0.0
    )


def test_column_stats_single_row_std_zero():
    table = make_table(np.array([[3.5]]), np.array([0]))
    assert column_stats(table).column("f00").std == 0.0


def test_column_stats_label_column_counts_observed_classes():
    table = make_table(np.zeros((4, 1)), np.array([0, 1, 1, 0]))
    assert column_stats(table).column("label").distinct == 2
    assert column_stats(table).column("label").kind == KIND_LABEL


def test_column_stats_rejects_empty():
    table = make_table(np.zeros((0, 2)), np.zeros(0, dtype=np.int64))
    with pytest.raises(DataError):
        column_stats(table)


def test_class_distribution_single_class():
    table = make_table(np.zeros((10, 1)), np.zeros(10, dtype=np.int64), ("only",))
    assert class_distribution(table) == [("only", 10, 1.0)]


def test_class_distribution_ratios_are_count_over_n():
    y = np.array([0, 0, 0, 1, 1, 2, 2, 2, 2, 2])
    table = make_table(np.zeros((10, 1)), y)
    dist = class_distribution(table)
    assert [c for _, c, _ in dist] == [3, 2, 5]
    assert [r for _, _, r in dist] == [0.3, 0.2, 0.5]


def test_table_is_immutable():
    table = make_table(np.ones((3, 2)), np.array([0, 1, 0]))
    with pytest.raises(AttributeError):
        table.labels = np.zeros(3, dtype=np.int64)
    with pytest.raises(ValueError):
        table.columns[0][0] = 99.0
    with pytest.raises(ValueError):
        table.labels[0] = 1


def test_features_are_one_column_major_block():
    table = make_table(np.arange(12.0).reshape(4, 3), np.array([0, 1, 0, 1]))
    for derived in (table, table.take_rows(np.array([3, 1])), table.replace_columns(table.columns)):
        matrix = derived.feature_matrix()
        assert matrix.flags["F_CONTIGUOUS"] and not matrix.flags["WRITEABLE"]
        assert all(np.shares_memory(column, matrix) for column in derived.columns)
        assert [column.tolist() for column in derived.columns] == matrix.T.tolist()
    # a column-major matrix becomes the block itself
    block = np.asfortranarray(np.arange(9.0).reshape(3, 3))
    assert table.take_rows(np.arange(3)).replace_columns(block).feature_matrix() is block


def test_encoding_counts_recomputed_from_labels():
    table = ColumnarTable(
        (ColumnSchema("x", KIND_NUMERIC, 0), ColumnSchema("label", KIND_LABEL, 1)),
        [np.zeros(4)],
        np.array([1, 1, 1, 0]),
        ("a", "b"),
    )
    assert table.encoding == LabelEncoding(("a", "b"), (1, 3))


def test_schema_rejects_duplicate_names():
    with pytest.raises(DataError):
        validate_schema(
            (ColumnSchema("x", KIND_NUMERIC, 0), ColumnSchema("x", KIND_LABEL, 1))
        )


def test_schema_indices_must_be_contiguous():
    with pytest.raises(DataError):
        ColumnarTable(
            (ColumnSchema("x", KIND_NUMERIC, 1), ColumnSchema("label", KIND_LABEL, 0)),
            [np.zeros(2)],
            np.array([0, 0]),
            ("a",),
        )


def test_label_ids_must_fit_encoding():
    with pytest.raises(DataError):
        ColumnarTable(
            (ColumnSchema("x", KIND_NUMERIC, 0), ColumnSchema("label", KIND_LABEL, 1)),
            [np.zeros(2)],
            np.array([0, 1]),
            ("a",),
        )
