"""Reference CSV layers: the row-at-a-time load, timestamp merge and write that
block-wise ingest replaced, kept as an independent copy to compare against.

Block-wise ``load_csv`` must build the same RawTable bit for bit, and
block-wise ``write_csv`` must write the same bytes. The one deliberate
difference is not reproduced here: this loader reads every data row before
it checks the header, so a file with both a ragged line and a bad header
reports the ragged line here and the header in the library. A timestamp
component too large for a C int escapes this ``epoch_seconds`` as an
OverflowError; the library raises a DataError naming it.
"""

from __future__ import annotations

import calendar
import csv
from datetime import datetime
from pathlib import Path
from typing import Sequence

import numpy as np

from flowgate.dataset import KIND_CATEGORICAL, KIND_LABEL, KIND_NUMERIC, ColumnSchema, ColumnarTable
from flowgate.errors import DataError
from flowgate.prep import RawTable
from flowgate.profiles import DatasetProfile


def _parse_cell(token: str) -> float:
    if token == "":
        return float("nan")
    return float(token)


def load_csv(path: str | Path, profile: DatasetProfile) -> RawTable:
    """One list append per cell, one ``_parse_cell`` call per numeric cell."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"missing file: {path}")
    with path.open("r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, expected a header row") from None
        width = len(header)
        columns: list[list[str]] = [[] for _ in range(width)]
        start = reader.line_num + 1  # file line on which the next row starts
        for row in reader:
            if len(row) != width:
                raise DataError(
                    f"{path}: line {start}: expected {width} fields, found {len(row)}"
                )
            for i, token in enumerate(row):
                columns[i].append(token)
            start = reader.line_num + 1
    if len(set(header)) != len(header):
        raise DataError(f"{path}: duplicate header names")
    if profile.label_column not in header:
        raise DataError(f"{path}: label column {profile.label_column!r} not present")

    schema: list[ColumnSchema] = []
    cells: list[np.ndarray] = []
    for idx, name in enumerate(header):
        tokens = columns[idx]
        if name == profile.label_column:
            schema.append(ColumnSchema(name, KIND_LABEL, idx))
            cells.append(np.asarray(tokens, dtype=object))
            continue
        try:
            values = np.asarray([_parse_cell(t) for t in tokens], dtype=np.float64)
        except ValueError:
            schema.append(ColumnSchema(name, KIND_CATEGORICAL, idx))
            cells.append(np.asarray(tokens, dtype=object))
        else:
            schema.append(ColumnSchema(name, KIND_NUMERIC, idx))
            cells.append(values)
    return RawTable(schema, cells)


def epoch_seconds(component_arrays: list[np.ndarray], names: Sequence[str]) -> np.ndarray:
    """One ``datetime`` per distinct row of calendar components."""
    n = component_arrays[0].shape[0]
    out = np.empty(n, dtype=np.float64)
    cache: dict[tuple[int, ...], float] = {}
    for row in range(n):
        parts = []
        for arr, name in zip(component_arrays, names):
            value = arr[row]
            if not np.isfinite(value) or value != int(value):
                raise DataError(
                    f"row {row}: timestamp component {name!r} must be an integer, got {value!r}"
                )
            parts.append(int(value))
        key = tuple(parts)
        seconds = cache.get(key)
        if seconds is None:
            try:
                stamp = datetime(*key)
            except ValueError as exc:
                raise DataError(f"row {row}: invalid timestamp components {key}: {exc}") from exc
            seconds = float(calendar.timegm(stamp.timetuple()))
            cache[key] = seconds
        out[row] = seconds
    return out


def write_csv(table: RawTable | ColumnarTable, path: str | Path) -> None:
    """One ``csv.writer`` row and one f-string per cell."""
    if isinstance(table, ColumnarTable):
        names = (*table.feature_names, table.label_name)
        class_names = np.array(table.encoding.class_names, dtype=object)
        columns = (*table.columns, class_names[table.labels])
    else:
        names, columns = table.column_names, table.cells
    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(names)
        for row in zip(*(column.tolist() for column in columns)):
            writer.writerow([f"{v:.17g}" if type(v) is float else str(v) for v in row])
