"""Immutable columnar datasets: schema, label encoding, descriptive statistics.

A table is one column-major float64 feature block, whose columns are the
feature arrays, plus an int64 class-id vector. Transforms elsewhere in the
package always build new tables; arrays are marked read-only at construction
so accidental mutation fails fast.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError

KIND_NUMERIC = "numeric"
KIND_CATEGORICAL = "categorical"
KIND_TIMESTAMP = "timestamp"
KIND_LABEL = "label"

COLUMN_KINDS = (KIND_NUMERIC, KIND_CATEGORICAL, KIND_TIMESTAMP, KIND_LABEL)


@dataclass(frozen=True)
class ColumnSchema:
    """Name, kind, and ordinal position of one column."""

    name: str
    kind: str
    index: int

    def __post_init__(self) -> None:
        if self.kind not in COLUMN_KINDS:
            raise DataError(f"unknown column kind {self.kind!r} for column {self.name!r}")
        if self.index < 0:
            raise DataError(f"column {self.name!r} has negative index {self.index}")


def validate_schema(schema: Sequence[ColumnSchema]) -> None:
    """Column names unique, exactly one label column."""
    names = [c.name for c in schema]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise DataError(f"duplicate column names: {dupes}")
    n_label = sum(1 for c in schema if c.kind == KIND_LABEL)
    if n_label != 1:
        raise DataError(f"schema needs exactly one label column, found {n_label}")


@dataclass(frozen=True)
class LabelEncoding:
    """Bijective mapping between class names and contiguous integer ids.

    The id of a class is its position in ``class_names``; ``counts`` holds the
    per-class row counts of the table the encoding was computed from.
    """

    class_names: tuple[str, ...]
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.class_names:
            raise DataError("label encoding needs at least one class")
        if len(set(self.class_names)) != len(self.class_names):
            raise DataError("class names must be unique")
        if len(self.counts) != len(self.class_names):
            raise DataError("counts and class_names length mismatch")
        if any(c < 0 for c in self.counts):
            raise DataError("class counts must be non-negative")

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    @classmethod
    def from_labels(cls, class_names: Sequence[str], labels: np.ndarray) -> "LabelEncoding":
        counts = np.bincount(labels, minlength=len(class_names)) if labels.size else np.zeros(
            len(class_names), dtype=np.int64
        )
        return cls(tuple(class_names), tuple(int(c) for c in counts))


class ColumnarTable:
    """Immutable column-major dataset with encoded labels.

    Parameters
    ----------
    schema:
        One entry per column including the label column; indices must be the
        contiguous range 0..len(schema)-1 in order.
    columns:
        Float64 arrays for every non-label column, in schema order, or the
        (n_rows, n_features) matrix of them.
    labels:
        Int64 class ids, one per row, each in [0, len(class_names)).
    class_names:
        The class of each id, in id order; ``encoding`` pairs them with the
        per-class counts of ``labels``.

    The features are held as one Fortran-order float64 block, and
    ``columns`` are views of its columns. A column-major matrix given as
    ``columns`` becomes the block without a copy; separate arrays are copied
    into a new block.
    """

    __slots__ = ("schema", "columns", "labels", "encoding", "_matrix")

    def __init__(
        self,
        schema: Sequence[ColumnSchema],
        columns: Sequence[np.ndarray] | np.ndarray,
        labels: np.ndarray,
        class_names: Sequence[str],
    ) -> None:
        schema = tuple(schema)
        validate_schema(schema)
        for pos, col in enumerate(schema):
            if col.index != pos:
                raise DataError(f"schema indices must be contiguous, column {col.name!r} at {pos}")
        feature_schema = tuple(c for c in schema if c.kind != KIND_LABEL)
        labels = np.asarray(labels, dtype=np.int64)
        if labels.ndim != 1:
            raise DataError("labels must be one-dimensional")
        given = isinstance(columns, np.ndarray) and columns.ndim == 2
        n_given = columns.shape[1] if given else len(columns)
        if n_given != len(feature_schema):
            raise DataError(f"expected {len(feature_schema)} feature columns, got {n_given}")
        if given:
            matrix = np.asfortranarray(columns, dtype=np.float64)
            if matrix.shape[0] != labels.size:
                raise DataError("feature matrix rows differ from labels")
        else:
            matrix = np.empty((labels.size, n_given), dtype=np.float64, order="F")
            for j, (col_schema, arr) in enumerate(zip(feature_schema, columns)):
                arr = np.asarray(arr, dtype=np.float64)
                if arr.shape != labels.shape:
                    raise DataError(f"column {col_schema.name!r} length differs from labels")
                matrix[:, j] = arr
        if labels.size and (labels.min() < 0 or labels.max() >= len(class_names)):
            raise DataError("label ids out of range for the encoding")
        matrix.setflags(write=False)
        labels.setflags(write=False)

        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "columns", tuple(matrix.T))
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "encoding", LabelEncoding.from_labels(class_names, labels))
        object.__setattr__(self, "_matrix", matrix)

    def __setattr__(self, name: str, value) -> None:  # pragma: no cover - guard
        raise AttributeError("ColumnarTable is immutable")

    # -- shape ------------------------------------------------------------

    @property
    def n_rows(self) -> int:
        return int(self.labels.shape[0])

    @property
    def n_features(self) -> int:
        return len(self.columns)

    @property
    def n_classes(self) -> int:
        return self.encoding.n_classes

    @property
    def feature_schema(self) -> tuple[ColumnSchema, ...]:
        return tuple(c for c in self.schema if c.kind != KIND_LABEL)

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.feature_schema)

    @property
    def label_name(self) -> str:
        return next(c.name for c in self.schema if c.kind == KIND_LABEL)

    def feature_matrix(self) -> np.ndarray:
        """The (n_rows, n_features) feature block, column-major: the one
        float64 copy of the features, whose columns are ``columns``."""
        return self._matrix

    # -- derivation helpers ------------------------------------------------

    def replace_columns(self, new_columns: Sequence[np.ndarray]) -> "ColumnarTable":
        """New table with the same schema/labels and substituted feature data."""
        return ColumnarTable(self.schema, new_columns, self.labels, self.encoding.class_names)

    def take_rows(self, indices: np.ndarray) -> "ColumnarTable":
        """New table holding the given rows (in the given order)."""
        indices = np.asarray(indices, dtype=np.int64)
        matrix = np.empty((indices.size, self.n_features), dtype=np.float64, order="F")
        for j, col in enumerate(self.columns):
            matrix[:, j] = col[indices]
        return ColumnarTable(self.schema, matrix, self.labels[indices], self.encoding.class_names)


@dataclass(frozen=True)
class ColumnSummary:
    """Descriptive statistics for one column; stats are None for non-numeric kinds."""

    name: str
    kind: str
    distinct: int
    minimum: float | None = None
    maximum: float | None = None
    mean: float | None = None
    std: float | None = None


@dataclass(frozen=True)
class DatasetSummary:
    n_rows: int
    n_features: int
    columns: tuple[ColumnSummary, ...]

    def column(self, name: str) -> ColumnSummary:
        for col in self.columns:
            if col.name == name:
                return col
        raise DataError(f"no summary for column {name!r}")


def column_stats(table: ColumnarTable) -> DatasetSummary:
    """Per-column min/max/mean/sample-std (ddof=1) and distinct counts.

    The sample standard deviation of a single row is taken as 0.0. Categorical
    columns report only their distinct-code count; the label column reports
    the number of observed classes.
    """
    if table.n_rows == 0:
        raise DataError("empty dataset")
    entries = []
    for col_schema, arr in zip(table.feature_schema, table.columns):
        distinct = int(np.unique(arr).size)
        if col_schema.kind in (KIND_NUMERIC, KIND_TIMESTAMP):
            std = float(np.std(arr, ddof=1)) if arr.size > 1 else 0.0
            entries.append(
                ColumnSummary(
                    name=col_schema.name,
                    kind=col_schema.kind,
                    distinct=distinct,
                    minimum=float(arr.min()),
                    maximum=float(arr.max()),
                    mean=float(arr.mean()),
                    std=std,
                )
            )
        else:
            entries.append(
                ColumnSummary(name=col_schema.name, kind=col_schema.kind, distinct=distinct)
            )
    entries.append(
        ColumnSummary(
            name=table.label_name,
            kind=KIND_LABEL,
            distinct=int(np.unique(table.labels).size),
        )
    )
    return DatasetSummary(table.n_rows, table.n_features, tuple(entries))


def class_distribution(table: ColumnarTable) -> list[tuple[str, int, float]]:
    """(class name, count, count/n_rows) for every class in id order."""
    if table.n_rows == 0:
        raise DataError("empty dataset")
    n = table.n_rows
    return [
        (name, count, count / n)
        for name, count in zip(table.encoding.class_names, table.encoding.counts)
    ]
