"""CSV ingestion and the fixed cleaning pipeline.

Stage order is fixed: load -> merge_timestamps -> drop_columns_by_name ->
drop_invalid_rows -> drop_duplicate_rows -> drop_zero_variance_columns ->
encode_categoricals -> minmax_normalize -> stratified_split. Each stage is
also usable on its own and only returns its output; the four filters also
return a details string saying what they removed. The pipeline records one
PrepReport entry per stage through PrepReport.add, so zero-effect stages
remain visible.
"""

from __future__ import annotations

import calendar
import csv
import io
from contextlib import closing
from dataclasses import asdict, dataclass, field
from datetime import datetime
from itertools import chain, islice
from pathlib import Path
from typing import BinaryIO, Container, Iterable, Iterator, Sequence, TextIO

import numpy as np

from .dataset import (
    KIND_CATEGORICAL,
    KIND_LABEL,
    KIND_NUMERIC,
    KIND_TIMESTAMP,
    ColumnSchema,
    ColumnarTable,
    validate_schema,
)
from .errors import DataError
from .parallel import parallel_imap
from .profiles import DatasetProfile

FIT_FULL_DATASET = "full_dataset"
FIT_TRAIN_ONLY = "train_only"

STAGE_LOAD = "load"
STAGE_MERGE = "merge_timestamps"
STAGE_DROP_COLUMNS = "drop_columns"
STAGE_DROP_INVALID = "drop_invalid_rows"
STAGE_DROP_DUPLICATES = "drop_duplicate_rows"
STAGE_DROP_ZERO_VARIANCE = "drop_zero_variance_columns"
STAGE_ENCODE = "encode"
STAGE_NORMALIZE = "normalize"
STAGE_SPLIT = "split"


class RawTable:
    """Pre-encoding table: float64 arrays for numeric/timestamp columns,
    string token arrays for categorical and label columns."""

    __slots__ = ("schema", "cells")

    def __init__(self, schema: Sequence[ColumnSchema], cells: Sequence[np.ndarray]) -> None:
        schema = tuple(schema)
        validate_schema(schema)
        if len(cells) != len(schema):
            raise DataError(f"expected {len(schema)} columns of cells, got {len(cells)}")
        n_rows = None
        frozen = []
        for col, arr in zip(schema, cells):
            if col.kind in (KIND_NUMERIC, KIND_TIMESTAMP):
                arr = np.ascontiguousarray(arr, dtype=np.float64)
            else:
                arr = np.asarray(arr, dtype=object)
            if arr.ndim != 1:
                raise DataError(f"column {col.name!r} must be one-dimensional")
            if n_rows is None:
                n_rows = arr.shape[0]
            elif arr.shape[0] != n_rows:
                raise DataError(f"column {col.name!r} length differs from the others")
            arr.setflags(write=False)
            frozen.append(arr)
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "cells", tuple(frozen))

    def __setattr__(self, name: str, value) -> None:  # pragma: no cover - guard
        raise AttributeError("RawTable is immutable")

    @property
    def n_rows(self) -> int:
        return int(self.cells[0].shape[0]) if self.cells else 0

    @property
    def n_columns(self) -> int:
        return len(self.schema)

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.schema)

    @property
    def label_name(self) -> str:
        return next(c.name for c in self.schema if c.kind == KIND_LABEL)

    def column(self, name: str) -> np.ndarray:
        for col, arr in zip(self.schema, self.cells):
            if col.name == name:
                return arr
        raise DataError(f"no column named {name!r}")

    def kind_of(self, name: str) -> str:
        for col in self.schema:
            if col.name == name:
                return col.kind
        raise DataError(f"no column named {name!r}")

    def take_rows(self, indices: np.ndarray) -> "RawTable":
        indices = np.asarray(indices, dtype=np.int64)
        return RawTable(self.schema, [arr[indices] for arr in self.cells])

    def without_columns(self, names: set[str]) -> "RawTable":
        kept = [(c, a) for c, a in zip(self.schema, self.cells) if c.name not in names]
        schema = [
            ColumnSchema(c.name, c.kind, pos) for pos, (c, _) in enumerate(kept)
        ]
        return RawTable(schema, [a for _, a in kept])


@dataclass(frozen=True)
class PrepEntry:
    stage: str
    rows_before: int
    rows_after: int
    columns_before: int
    columns_after: int
    details: str = ""


@dataclass
class PrepReport:
    entries: list[PrepEntry] = field(default_factory=list)

    def add(
        self,
        stage: str,
        before: RawTable | ColumnarTable,
        after: RawTable | ColumnarTable,
        details: str,
    ) -> None:
        """Record one stage from the tables it read and returned."""
        self.entries.append(
            PrepEntry(
                stage,
                before.n_rows,
                after.n_rows,
                len(before.schema),
                len(after.schema),
                details,
            )
        )

    def to_dicts(self) -> list[dict]:
        return [asdict(e) for e in self.entries]

    def to_lines(self) -> list[str]:
        lines = []
        for e in self.entries:
            lines.append(
                f"{e.stage}: rows {e.rows_before} -> {e.rows_after}, "
                f"columns {e.columns_before} -> {e.columns_after}"
                + (f" ({e.details})" if e.details else "")
            )
        return lines


@dataclass(frozen=True)
class NormalizationStats:
    """Per-feature min/max fitted by minmax_normalize."""

    feature_names: tuple[str, ...]
    minimums: np.ndarray
    maximums: np.ndarray

    def __post_init__(self) -> None:
        mins = np.ascontiguousarray(self.minimums, dtype=np.float64)
        maxs = np.ascontiguousarray(self.maximums, dtype=np.float64)
        if mins.shape != (len(self.feature_names),) or maxs.shape != mins.shape:
            raise DataError("normalization stats shape mismatch")
        if np.any(mins > maxs):
            raise DataError("normalization stats require min <= max per feature")
        mins.setflags(write=False)
        maxs.setflags(write=False)
        object.__setattr__(self, "minimums", mins)
        object.__setattr__(self, "maximums", maxs)


@dataclass(frozen=True)
class SplitPair:
    train: ColumnarTable
    test: ColumnarTable
    ratio: float
    seed: int


@dataclass(frozen=True)
class PrepOptions:
    split_ratio: float = 0.8
    seed: int = 0
    fit_scope: str = FIT_FULL_DATASET

    def __post_init__(self) -> None:
        if not 0.0 < self.split_ratio < 1.0:
            raise DataError(f"split_ratio must be in (0, 1), got {self.split_ratio}")
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")
        if self.fit_scope not in (FIT_FULL_DATASET, FIT_TRAIN_ONLY):
            raise DataError(f"unknown fit_scope {self.fit_scope!r}")


# -- load --------------------------------------------------------------------

# Rows that load_csv parses and write_csv formats per step: memory per step is
# one block of tokens or text (about 5 MB at 80 columns), and the per-cell
# work runs inside C calls.
_BLOCK_ROWS = 1024
# Bytes of data rows per chunk of load_csv: a worker allocates about five
# times this while it parses one (at most 4.8 MiB for a 1 MiB chunk of the
# ingest-csv benchmark CSV, tracemalloc).
_CHUNK_BYTES = 1 << 20


def _parse_cell(token: str) -> float:
    # Empty cells read as NaN; float() already accepts Infinity/-Infinity/NaN
    # spellings case-insensitively.
    if token == "":
        return float("nan")
    return float(token)


def _parse_tokens(tokens: Sequence[str]) -> np.ndarray | None:
    """One block of a column as float64, or None when a token is not a real."""
    parse = _parse_cell if "" in tokens else float
    try:
        return np.fromiter(map(parse, tokens), np.float64, len(tokens))
    except ValueError:
        return None


def _store(buffer: np.ndarray, at: int, values: np.ndarray) -> None:
    """Write ``values`` into ``buffer`` from item ``at``, first growing its
    capacity in place, by a quarter or to fit them, when they do not fit.
    The geometric growth keeps the reallocations few; the small step keeps
    the spare capacity, which numpy zero-fills and so makes resident, small."""
    if at + values.size > buffer.size:
        # realloc in place: no view of a column buffer outlives a statement
        buffer.resize(max(buffer.size + buffer.size // 4, at + values.size), refcheck=False)
    buffer[at : at + values.size] = values


def _extend_shared(column: list[str], distinct: dict[str, str], tokens: Sequence[str]) -> None:
    """Append tokens to a column, each as the first equal str the column saw,
    so a repeated token costs one pointer and not one more str."""
    column.extend(map(distinct.setdefault, tokens, tokens))


def _parse_rows(rows: list[list[str]], reals: Container[int]) -> Iterator[np.ndarray | Sequence[str]]:
    """Each column of ``rows`` in turn: float64 when it is in ``reals`` and
    each of its tokens is a real, its tokens otherwise."""
    for i, column in enumerate(zip(*rows)):
        values = _parse_tokens(column) if i in reals else None
        yield column if values is None else values


def _parts(
    reader, path: Path, width: int, reals: Container[int]
) -> Iterator[tuple[int, Iterator[np.ndarray | Sequence[str]]]]:
    """The records that the csv reader ``reader`` reads from file ``path``,
    in blocks of up to _BLOCK_ROWS: each block's row count and its columns
    as ``_parse_rows`` gives them, read after the block before is released.
    A record without ``width`` fields raises DataError naming the line on
    which it starts, the reader's first line being line 1."""
    while True:
        line = reader.line_num  # the lines read before this block
        block = list(islice(reader, _BLOCK_ROWS))
        if not block:
            return
        if list(map(len, block)).count(width) != len(block):
            k, row = next((k, r) for k, r in enumerate(block) if len(r) != width)
            # a record takes one line, plus one per line end in its quoted fields
            text = ",".join(chain.from_iterable(block[:k]))
            line += k + 1 + text.count("\n") + text.count("\r") - text.count("\r\n")
            raise DataError(f"{path}: line {line}: expected {width} fields, found {len(row)}")
        yield len(block), _parse_rows(block, reals)
        del block  # the next block is read without this one


class _Columns:
    """The columns of one load, filled by successive parts of its rows.

    Each numeric column is written into one float64 buffer whose capacity
    grows geometrically, in place, as rows arrive and which is cut to the row
    count at the end. Tokens are kept only for the label and for the columns
    the first part found categorical, equal tokens of a column sharing one
    str. A column that first fails to parse in a later part is demoted.
    Columns made with ``keep`` hold the tokens of those columns only."""

    def __init__(
        self, header: list[str], path: Path, profile: DatasetProfile, keep: Sequence[int] | None
    ) -> None:
        if len(set(header)) != len(header):
            raise DataError(f"{path}: duplicate header names")
        if profile.label_column not in header:
            raise DataError(f"{path}: label column {profile.label_column!r} not present")
        self.header = header
        self.label = header.index(profile.label_column)
        reals = [i for i in range(len(header)) if i != self.label] if keep is None else []
        self.reals = {i: np.empty(_BLOCK_ROWS) for i in reals}
        self.tokens: dict[int, list[str]] = {i: [] for i in keep or [self.label]}
        self.distinct: dict[int, dict[str, str]] = {i: {} for i in self.tokens}
        self.demoted: list[int] = []
        self.n_rows = 0

    def add(self, n_rows: int, part: Iterable[np.ndarray | Sequence[str]]) -> None:
        """Append the next ``n_rows`` rows, their columns given in turn as
        ``_parse_rows`` gives them, so that one column at a time is held."""
        for i, values in enumerate(part):
            if i in self.tokens:
                _extend_shared(self.tokens[i], self.distinct[i], values)
            elif i in self.reals:
                if isinstance(values, np.ndarray):
                    _store(self.reals[i], self.n_rows, values)
                    continue
                del self.reals[i]
                if self.n_rows == 0:  # the first part: all its tokens are here
                    self.tokens[i], self.distinct[i] = [], {}
                    _extend_shared(self.tokens[i], self.distinct[i], values)
                else:
                    self.demoted.append(i)
        self.n_rows += n_rows

    def table(self) -> RawTable:
        schema: list[ColumnSchema] = []
        cells: list[np.ndarray] = []
        for idx, name in enumerate(self.header):
            if idx in self.reals:
                schema.append(ColumnSchema(name, KIND_NUMERIC, idx))
                column = self.reals.pop(idx)
                column.resize(self.n_rows, refcheck=False)  # gives back the spare capacity
                cells.append(column)
            else:
                kind = KIND_LABEL if idx == self.label else KIND_CATEGORICAL
                schema.append(ColumnSchema(name, kind, idx))
                cells.append(np.asarray(self.tokens.pop(idx), dtype=object))
        return RawTable(schema, cells)


def _read_serial(
    text: TextIO, path: Path, profile: DatasetProfile, keep: Sequence[int] | None
) -> _Columns:
    """The columns of the open CSV file ``path``, read from its start by one
    csv reader. Bytes that are not UTF-8 raise DataError naming the file,
    and a record the csv module refuses (a field over its size limit, say)
    one naming the line the reader is on."""
    reader = csv.reader(text)
    try:
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: empty file, expected a header row")
        columns = _Columns(header, path, profile, keep)
        for part in _parts(reader, path, len(header), columns.reals):
            columns.add(*part)
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start : exc.end]
        raise DataError(f"{path}: not UTF-8 text ({exc.reason}: {bad!r})") from None
    except csv.Error as exc:
        raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
    return columns


def _plain(line: bytes) -> bool:
    """Whether ``line`` holds no quote, which may open a field that a cut
    between chunks splits, and no "\\r" but one before its final "\\n":
    a file reader also ends a line at a bare "\\r"."""
    return b'"' not in line and line.count(b"\r") <= line.endswith(b"\r\n")


def _chunk_lines(path: Path, start: int, stop: int) -> Iterator[str]:
    """The lines in bytes [start, stop) of the file, read and decoded one at
    a time; a line that is not ``_plain`` raises DataError. Read whole, one
    buffer of the chunk's size per chunk raised the RSS rise of a 2-worker
    load of a 212,000 × 41 ``flowgate synth`` CSV from 79 to 91 MB."""
    with path.open("rb") as handle:
        handle.seek(start)
        while start < stop and (line := handle.readline()):
            if not _plain(line):
                raise DataError(f"{path}: byte {start}: a quote or a bare carriage return")
            start += len(line)
            yield line.decode("utf-8")


def _chunk_bounds(handle: BinaryIO, start: int) -> list[int]:
    """Offsets that cut the file from ``start`` to its end into chunks of
    about _CHUNK_BYTES, each starting just after a newline."""
    size = handle.seek(0, io.SEEK_END)
    bounds = [start]
    while bounds[-1] + _CHUNK_BYTES < size:
        handle.seek(bounds[-1] + _CHUNK_BYTES - 1)
        while (piece := handle.readline(_CHUNK_BYTES)) and not piece.endswith(b"\n"):
            pass
        bounds.append(handle.tell())
    if bounds[-1] < size:
        bounds.append(size)
    return bounds


def _read_chunks(
    handle: BinaryIO, path: Path, profile: DatasetProfile, keep: Sequence[int] | None
) -> _Columns | None:
    """The columns of the open CSV file ``path``, its data rows read in
    chunks: the caller parses the first, which sets the token columns, and
    ``parallel_imap`` the others, each sending back the columns kept only.
    None when ``_read_serial`` must read the file: its header line is longer
    than a chunk or not ``_plain``, or a chunk is refused."""
    line = handle.readline(_CHUNK_BYTES)
    if not line.endswith(b"\n") or not _plain(line):
        return None
    try:
        columns = _Columns(next(csv.reader([line.decode("utf-8-sig")])), path, profile, keep)
        width = len(columns.header)
        bounds = _chunk_bounds(handle, len(line))
        chunks = list(zip(bounds, bounds[1:]))

        def parts(chunk: tuple[int, int], reals: Container[int]) -> Iterator[tuple[int, Iterator]]:
            return _parts(csv.reader(_chunk_lines(path, *chunk)), path, width, reals)

        for part in parts(chunks[0], columns.reals) if chunks else ():
            columns.add(*part)
        reals, kept = set(columns.reals), set(columns.reals) | set(columns.tokens)

        def parse(chunk: tuple[int, int]) -> list[tuple[int, list[np.ndarray | Sequence[str]]]]:
            return [
                (n_rows, [values if i in kept else () for i, values in enumerate(part)])
                for n_rows, part in parts(chunk, reals)
            ]

        with closing(parallel_imap(parse, chunks[1:])) as parsed:
            for result in parsed:
                for part in result:
                    columns.add(*part)
    except (DataError, UnicodeDecodeError, csv.Error):
        return None
    return columns


def _read(
    path: Path, profile: DatasetProfile, keep: Sequence[int] | None = None
) -> tuple[_Columns, bool]:
    """The columns of the CSV file ``path``, read by ``_read_chunks`` or
    else by ``_read_serial``, and whether the file can seek."""
    try:
        handle = path.open("rb")
    except FileNotFoundError:
        raise DataError(f"missing file: {path}") from None
    except OSError as exc:  # a directory, say
        raise DataError(f"cannot read {path}: {exc.strerror}") from None
    with handle:
        seekable = handle.seekable()
        columns = _read_chunks(handle, path, profile, keep) if seekable else None
        if columns is None:
            if seekable:
                handle.seek(0)
            with io.TextIOWrapper(handle, encoding="utf-8-sig", newline="") as text:
                columns = _read_serial(text, path, profile, keep)
    return columns, seekable


def load_csv(path: str | Path, profile: DatasetProfile) -> RawTable:
    """Read an RFC-4180 CSV with a header row into a RawTable.

    A column becomes numeric when every cell parses as a 64-bit real
    (empty -> NaN, Infinity/-Infinity -> signed infinities); otherwise its
    original tokens are kept as a categorical column. The profile's label
    column is always kept as tokens. A UTF-8 byte-order mark before the
    header is dropped. Duplicate header names and a missing label column
    fail before any data row is read; a ragged row raises an error naming
    the 1-based file line on which it starts, and a field over the csv
    module's size limit one naming the line the reader was on. A path that
    is not a readable file, or a file that is not UTF-8, is a DataError too.

    ``_parts`` parses every data record, in blocks of _BLOCK_ROWS read by
    one csv reader, column by column into ``_Columns``. The data rows of a
    seekable file are cut into chunks of about _CHUNK_BYTES, each starting
    just after a newline; the caller parses the first, which sets the token
    columns, and ``parallel_imap`` the others (a plain loop at one worker),
    each reading its byte range line by line. A chunk is refused when a line
    holds a quote (a quoted field may span a cut) or a "\\r" that does not
    end it before its "\\n" (a file reader ends a line there too), bytes
    that are not UTF-8, a ragged row or a record the csv module refuses; so
    is a header line longer than a chunk or not plain in the same way. Then
    one csv reader reads the whole file, as it reads a file that cannot
    seek, and returns the same table or raises its error. A column demoted
    after the first part (a ``tcp`` in the last row of a numeric column,
    say) gets its tokens from a second read by the same route that keeps
    only the demoted columns; in a file that cannot seek it is a DataError.

    Memory: each block of str tokens is released before the next is read,
    and equal tokens of a column share one str. So the load holds the
    float64 columns (up to a quarter more while they grow), one pointer per
    token cell plus each distinct token once, and one chunk's results. On a
    212,000 × 41 ``flowgate synth`` CSV (a 66 MB table) at one worker the
    process's RSS rises by 76 MB over the load and peaks 89 MB above its
    start, where per-block float chunks joined at the end raised it by 135
    MB. A worker holds its chunk's parsed columns, one block of str tokens
    and one line of its bytes, plus one finished result in its pipe.
    """
    path = Path(path)
    columns, seekable = _read(path, profile)
    if columns.demoted:
        if not seekable:
            raise DataError(
                f"{path}: column {columns.header[columns.demoted[0]]!r} is not numeric after "
                "its first rows, and a file that cannot seek cannot be read again for its tokens"
            )
        columns.tokens.update(_read(path, profile, columns.demoted)[0].tokens)
    return columns.table()


# -- timestamp merge -----------------------------------------------------------

# datetime's range for each component, year..second; the day is then checked
# against its month's length
_COMPONENT_RANGES = ((1, 9999), (1, 12), (1, 31), (0, 23), (0, 59), (0, 59))
_MONTH_DAYS = np.array([31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31], dtype=np.int64)
# datetime() takes each component as a C int and overflows beyond it
_C_INT_LIMIT = 2**31


def _row_epoch_seconds(component_arrays: list[np.ndarray], names: Sequence[str], row: int) -> float:
    """Epoch seconds of one row through datetime. A bad row raises a DataError
    naming the row and its bad component, or all components for an
    impossible date."""
    parts = []
    for arr, name in zip(component_arrays, names):
        value = arr[row]
        if not np.isfinite(value) or value != int(value):
            raise DataError(
                f"row {row}: timestamp component {name!r} must be an integer, got {value!r}"
            )
        parts.append(int(value))
    for part, arr, name in zip(parts, component_arrays, names):
        if not -_C_INT_LIMIT <= part < _C_INT_LIMIT:
            raise DataError(
                f"row {row}: timestamp component {name!r} is out of range, got {arr[row]!r}"
            )
    key = tuple(parts)
    try:
        stamp = datetime(*key)
    except ValueError as exc:
        raise DataError(f"row {row}: invalid timestamp components {key}: {exc}") from exc
    return float(calendar.timegm(stamp.timetuple()))


def _epoch_seconds(component_arrays: list[np.ndarray], names: Sequence[str]) -> np.ndarray:
    """Calendar components (year..second, UTC) to integral epoch seconds.

    Every row is checked against datetime's ranges in float64, then counted
    with days-from-civil integer arithmetic (H. Hinnant, "chrono-compatible
    low-level date algorithms"). A row that fails the check goes through
    _row_epoch_seconds, so the first bad row raises datetime's error.
    """
    ok = np.ones(component_arrays[0].shape[0], dtype=bool)
    for arr, (low, high) in zip(component_arrays, _COMPONENT_RANGES):
        ok &= (arr >= low) & (arr <= high) & (arr == np.trunc(arr))
    year, month, day, hour, minute, second = (
        np.where(ok, arr, low).astype(np.int64)
        for arr, (low, _) in zip(component_arrays, _COMPONENT_RANGES)
    )
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    ok &= day <= _MONTH_DAYS[month - 1] + (leap & (month == 2))

    # days_from_civil: count years from March, so a leap day ends its year
    y = year - (month <= 2)
    era = y // 400
    yoe = y - era * 400
    doy = (153 * ((month + 9) % 12) + 2) // 5 + day - 1
    doe = yoe * 365 + yoe // 4 - yoe // 100 + doy
    days = era * 146097 + doe - 719468
    out = (days * 86400 + hour * 3600 + minute * 60 + second).astype(np.float64)
    for row in np.flatnonzero(~ok):
        out[row] = _row_epoch_seconds(component_arrays, names, int(row))
    return out


def merge_timestamps(raw: RawTable, profile: DatasetProfile) -> RawTable:
    """Fold calendar component columns into epoch-seconds columns.

    The merged column replaces the first component column positionally; the
    remaining components are dropped. Without a configured merge the table is
    returned unchanged.
    """
    merge = profile.timestamp_merge
    if merge is None:
        return raw
    new_names = {"stimestamp": merge.start_columns, "etimestamp": merge.end_columns}
    merged: dict[str, np.ndarray] = {}
    for new_name, component_names in new_names.items():
        arrays = []
        for name in component_names:
            if name not in raw.column_names:
                raise DataError(f"timestamp component column {name!r} not present")
            if raw.kind_of(name) not in (KIND_NUMERIC, KIND_TIMESTAMP):
                raise DataError(f"timestamp component column {name!r} is not numeric")
            arrays.append(raw.column(name))
        merged[new_name] = _epoch_seconds(arrays, component_names)

    component_set = set(merge.start_columns) | set(merge.end_columns)
    first_of = {
        "stimestamp": merge.start_columns[0],
        "etimestamp": merge.end_columns[0],
    }
    schema: list[ColumnSchema] = []
    cells: list[np.ndarray] = []
    for col, arr in zip(raw.schema, raw.cells):
        if col.name in component_set:
            for new_name, anchor in first_of.items():
                if col.name == anchor:
                    schema.append(ColumnSchema(new_name, KIND_TIMESTAMP, len(schema)))
                    cells.append(merged[new_name])
            continue
        schema.append(ColumnSchema(col.name, col.kind, len(schema)))
        cells.append(arr)
    return RawTable(schema, cells)


# -- column drops -------------------------------------------------------------


def drop_columns_by_name(raw: RawTable, names: Sequence[str]) -> tuple[RawTable, str]:
    """Drop the named columns; absent names are noted, the label is protected."""
    requested = list(dict.fromkeys(names))
    present = set(raw.column_names)
    label = raw.label_name
    if label in requested:
        raise DataError(f"refusing to drop the label column {label!r}")
    to_drop = {n for n in requested if n in present}
    absent = [n for n in requested if n not in present]
    out = raw.without_columns(to_drop) if to_drop else raw
    details = f"dropped {sorted(to_drop)}" if to_drop else "dropped []"
    if absent:
        details += f"; absent (ignored): {absent}"
    return out, details


# -- row filters ---------------------------------------------------------------


def drop_invalid_rows(raw: RawTable) -> tuple[RawTable, str]:
    """Remove every row holding NaN or an infinity in any numeric column."""
    mask = np.ones(raw.n_rows, dtype=bool)
    for col, arr in zip(raw.schema, raw.cells):
        if col.kind in (KIND_NUMERIC, KIND_TIMESTAMP):
            mask &= np.isfinite(arr)
    out = raw if mask.all() else raw.take_rows(np.flatnonzero(mask))
    removed = raw.n_rows - out.n_rows
    return out, f"removed {removed} rows with NaN or infinite values"


def _token_codes(tokens: np.ndarray) -> np.ndarray:
    """Each token's index among the column's distinct tokens, numbered in
    order of first occurrence. The tokens are coded through a dict, one
    lookup per cell, so the column is never copied into a fixed-width
    string array (which costs 4 bytes per character of its longest token in
    every cell) and never sorted."""
    index = {token: code for code, token in enumerate(dict.fromkeys(tokens))}
    return np.fromiter(map(index.__getitem__, tokens), np.int64, len(tokens))


def _column_codes(col: ColumnSchema, arr: np.ndarray) -> np.ndarray:
    """uint64 per cell, equal iff the cells are equal: a float's bit pattern
    (so NaNs with identical bits match and -0.0 differs from 0.0), a token's
    first-occurrence index among the column's distinct tokens."""
    if col.kind in (KIND_NUMERIC, KIND_TIMESTAMP):
        return arr.view(np.uint64)
    return _token_codes(arr).view(np.uint64)


def _row_hashes(raw: RawTable) -> np.ndarray:
    """One uint64 per row, equal for equal rows: the columns' codes folded
    in order through the splitmix64 finaliser (Steele, Lea and Flood, 2014)."""
    hashes = np.zeros(raw.n_rows, dtype=np.uint64)
    for col, arr in zip(raw.schema, raw.cells):
        hashes ^= _column_codes(col, arr)
        hashes ^= hashes >> np.uint64(30)
        hashes *= np.uint64(0xBF58476D1CE4E5B9)
        hashes ^= hashes >> np.uint64(27)
        hashes *= np.uint64(0x94D049BB133111EB)
        hashes ^= hashes >> np.uint64(31)
    return hashes


def _first_occurrences(raw: RawTable) -> np.ndarray:
    """Sorted indices of each distinct row's first occurrence, comparing
    whole rows: one opaque item per row of the column codes, which np.unique
    sorts and compares bytewise."""
    codes = np.ascontiguousarray(
        np.column_stack([_column_codes(c, a) for c, a in zip(raw.schema, raw.cells)])
    )
    rows = codes.view(np.dtype((np.void, codes.dtype.itemsize * codes.shape[1])))
    _, first_indices = np.unique(rows.ravel(), return_index=True)
    return np.sort(first_indices)


def _colliding_rows(hashes: np.ndarray) -> np.ndarray:
    """Sorted indices of the rows whose hash another row shares."""
    order = np.argsort(hashes)
    sorted_hashes = hashes[order]
    repeated = sorted_hashes[1:] == sorted_hashes[:-1]
    shared = np.zeros(hashes.size, dtype=bool)
    shared[1:] = repeated
    shared[:-1] |= repeated
    return np.sort(order[shared])


def drop_duplicate_rows(raw: RawTable) -> tuple[RawTable, str]:
    """Remove repeated rows, keeping the first occurrence in original order.

    Rows are hashed, and only the rows whose hash another row shares are
    compared whole, so the extra memory is a few arrays of one item per
    row plus a copy of those candidate rows.
    """
    keep = np.ones(raw.n_rows, dtype=bool)
    candidates = _colliding_rows(_row_hashes(raw))
    if candidates.size:
        keep[candidates] = False
        keep[candidates[_first_occurrences(raw.take_rows(candidates))]] = True
    out = raw if keep.all() else raw.take_rows(np.flatnonzero(keep))
    removed = raw.n_rows - out.n_rows
    return out, f"removed {removed} duplicate rows (first occurrence kept)"


def drop_zero_variance_columns(raw: RawTable) -> tuple[RawTable, str]:
    """Remove feature columns whose values are all identical (label excluded)."""
    constant: list[str] = []
    if raw.n_rows > 0:
        for col, arr in zip(raw.schema, raw.cells):
            if col.kind == KIND_LABEL:
                continue
            if col.kind in (KIND_NUMERIC, KIND_TIMESTAMP):
                bits = arr.view(np.uint64)
                if bool(np.all(bits == bits[0])):
                    constant.append(col.name)
            else:
                if bool(np.all(arr == arr[0])):
                    constant.append(col.name)
    out = raw.without_columns(set(constant)) if constant else raw
    return out, f"removed constant columns {sorted(constant)}"


# -- encoding -----------------------------------------------------------------


def encode_categoricals(raw: RawTable, profile: DatasetProfile) -> ColumnarTable:
    """Encode token columns as integer codes and the label via the profile.

    Categorical codes follow first-occurrence order; the label column maps
    through profile.class_names, and an unseen label value is an error naming
    the lowest such value. Numeric columns pass through bit-for-bit. Tokens
    are coded through dicts (``_token_codes``), not as a string array.
    """
    feature_columns: list[np.ndarray] = []
    labels: np.ndarray | None = None
    schema: list[ColumnSchema] = []
    for col, arr in zip(raw.schema, raw.cells):
        if col.kind == KIND_LABEL:
            mapping = {name: i for i, name in enumerate(profile.class_names)}
            unknown = [value for value in dict.fromkeys(arr) if value not in mapping]
            if unknown:
                raise DataError(f"unknown label value {min(unknown)!r}")
            labels = np.fromiter(map(mapping.__getitem__, arr), np.int64, len(arr))
            schema.append(ColumnSchema(col.name, KIND_LABEL, len(schema)))
            continue
        if col.kind == KIND_CATEGORICAL:
            feature_columns.append(_token_codes(arr).astype(np.float64))
        else:
            feature_columns.append(arr)
        schema.append(ColumnSchema(col.name, col.kind, len(schema)))
    if labels is None:  # pragma: no cover - schema validation forbids this
        raise DataError("no label column present")
    return ColumnarTable(schema, feature_columns, labels, profile.class_names)


# -- normalization --------------------------------------------------------------


def minmax_normalize(
    table: ColumnarTable, stats: NormalizationStats | None = None
) -> tuple[ColumnarTable, NormalizationStats]:
    """Scale every feature to [0, 1] via (x - min) / (max - min).

    With stats given, those bounds are applied instead of fitting (values may
    then fall outside [0, 1]); a feature-name mismatch is an error. Constant
    features map to 0.
    """
    if stats is None:
        if table.n_rows == 0:
            raise DataError("cannot fit normalization on an empty table")
        mins = np.array([col.min() for col in table.columns], dtype=np.float64)
        maxs = np.array([col.max() for col in table.columns], dtype=np.float64)
        stats = NormalizationStats(table.feature_names, mins, maxs)
    elif stats.feature_names != table.feature_names:
        raise DataError(
            "normalization stats were fitted on different features: "
            f"{stats.feature_names} vs {table.feature_names}"
        )
    scaled = np.empty_like(table.feature_matrix(), order="F")
    for j, col in enumerate(table.columns):
        lo = stats.minimums[j]
        span = stats.maximums[j] - lo
        if span == 0.0:
            scaled[:, j] = 0.0
        else:
            np.divide(np.subtract(col, lo, out=scaled[:, j]), span, out=scaled[:, j])
    return table.replace_columns(scaled), stats


# -- split -----------------------------------------------------------------------


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def stratified_split(table: ColumnarTable, ratio: float, seed: int) -> SplitPair:
    """Per-class 80:20-style split: round-half-up(ratio * n_c) rows to train,
    chosen by a seeded shuffle; the remainder goes to test. Row order within
    each side follows the original table order."""
    if not 0.0 < ratio < 1.0:
        raise DataError(f"split ratio must be in (0, 1), got {ratio}")
    counts = table.encoding.counts
    for name, count in zip(table.encoding.class_names, counts):
        if count == 0:
            raise DataError(f"class {name!r} has 0 rows, cannot stratify")
    rng = np.random.default_rng(seed)
    train_parts = []
    test_parts = []
    for class_id in range(table.n_classes):
        idx = np.flatnonzero(table.labels == class_id)
        perm = rng.permutation(idx)
        k = _round_half_up(ratio * idx.size)
        train_parts.append(perm[:k])
        test_parts.append(perm[k:])
    train_idx = np.sort(np.concatenate(train_parts))
    test_idx = np.sort(np.concatenate(test_parts))
    return SplitPair(
        train=table.take_rows(train_idx),
        test=table.take_rows(test_idx),
        ratio=ratio,
        seed=seed,
    )


# -- pipeline ----------------------------------------------------------------------


def preprocess_pipeline(
    source: str | Path | RawTable,
    profile: DatasetProfile,
    options: PrepOptions = PrepOptions(),
) -> tuple[SplitPair, PrepReport]:
    """Run the full fixed-order cleaning pipeline and split the result.

    ``source`` is a CSV path or an in-memory RawTable. With the default
    fit_scope the min/max bounds are fitted on the full dataset before the
    split (matching the published protocol); with train_only the split comes
    first and the bounds are fitted on the training side only.

    Memory: one name holds the current table, so each stage's input is
    released once its output exists and the report has its counts. The
    pipeline then holds at most two tables, or one table and one CSV block,
    at a time. A RawTable source is released by its first filter only when
    the caller hands it over as its only reference, as
    ``harness.run_experiment`` does. Token columns are coded through dicts,
    and encode copies the features into the one column-major block of the
    encoded table. On the gate-6 synthetic source (53,000 × 9, 3.6 MB) no
    stage allocates more than 1.2× that source. On the 17,040 × 80
    ``ingest-csv`` benchmark CSV the tracemalloc peak is 2.3× the final
    float64 table (8.1 MB), at the load, and the process's RSS peaks at 64
    MB: 35 MB after import, +20 MB over the load, +9 MB over the stages.
    """
    report = PrepReport()
    if isinstance(source, RawTable):
        table, origin = source, "memory"
    else:
        table, origin = load_csv(source, profile), str(source)
    del source
    report.add(STAGE_LOAD, table, table, f"source={origin}")

    out = merge_timestamps(table, profile)
    report.add(
        STAGE_MERGE,
        table,
        out,
        "merged 12 component columns into stimestamp/etimestamp"
        if profile.timestamp_merge is not None
        else "no timestamp merge configured",
    )
    table = out
    for stage, step in (
        (STAGE_DROP_COLUMNS, lambda t: drop_columns_by_name(t, profile.drop_columns)),
        (STAGE_DROP_INVALID, drop_invalid_rows),
        (STAGE_DROP_DUPLICATES, drop_duplicate_rows),
        (STAGE_DROP_ZERO_VARIANCE, drop_zero_variance_columns),
    ):
        out, details = step(table)
        report.add(stage, table, out, details)
        table = out

    out = encode_categoricals(table, profile)
    n_categorical = sum(1 for c in out.feature_schema if c.kind == KIND_CATEGORICAL)
    report.add(
        STAGE_ENCODE,
        table,
        out,
        f"encoded {n_categorical} categorical columns; {out.n_classes} classes",
    )
    table = out

    scope = f"fit_scope={options.fit_scope}"
    if options.fit_scope == FIT_FULL_DATASET:
        out, _ = minmax_normalize(table)
        report.add(STAGE_NORMALIZE, table, out, scope)
        table = out
        split = stratified_split(table, options.split_ratio, options.seed)
        report.add(STAGE_SPLIT, table, table, _split_details(table, split))
    else:
        split = stratified_split(table, options.split_ratio, options.seed)
        report.add(STAGE_SPLIT, table, table, _split_details(table, split))
        report.add(STAGE_NORMALIZE, table, table, scope)
        del table, out  # the split holds the rows now
        train, stats = minmax_normalize(split.train)
        split = SplitPair(train, split.test, split.ratio, split.seed)
        test, _ = minmax_normalize(split.test, stats=stats)
        split = SplitPair(train, test, split.ratio, split.seed)
    return split, report


def _split_details(table: ColumnarTable, split: SplitPair) -> str:
    per_class = ", ".join(
        f"{name}:{tr}/{te}"
        for name, tr, te in zip(
            table.encoding.class_names, split.train.encoding.counts,
            split.test.encoding.counts
        )
    )
    return f"ratio={split.ratio} seed={split.seed} train/test per class: {per_class}"


# -- CSV emission -----------------------------------------------------------------


def _csv_fields(values: list, alone: bool) -> list[str]:
    """Token cells as csv.writer writes them within a row, quoting each
    distinct text once. ``alone`` marks a one-column table, where csv.writer
    quotes an empty field so that its row is not blank."""
    texts = [
        v if type(v) is str else f"{v:.17g}" if type(v) is float else str(v) for v in values
    ]
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    fields = {}
    for text in set(texts):
        buffer.seek(0)
        buffer.truncate()
        writer.writerow([text] if alone else [text, ""])
        fields[text] = buffer.getvalue()[: -2 if alone else -3]
    return list(map(fields.__getitem__, texts))


def write_csv(table: RawTable | ColumnarTable, path: str | Path) -> None:
    """Serialize a table as CSV; reals carry 17 significant digits so they
    re-parse to the same 64-bit values, tokens are written as they are,
    quoted as csv.writer quotes them.

    An encoded table is written as its feature columns followed by the
    label's class names; a raw table as its cells. Rows are formatted in
    blocks of _BLOCK_ROWS, each with one ``%`` operation and encoded to
    UTF-8 bytes, through ``parallel_imap``: with more than one worker, the
    workers format the blocks and the caller writes them in order. Memory
    beyond the table is one pointer per token cell and each distinct
    token's text once; each worker holds one block of Python floats and
    text and one formatted block in its pipe. A path that cannot be opened
    or written (a directory, a full disk) is a DataError naming it.
    """
    if isinstance(table, ColumnarTable):
        names = (*table.feature_names, table.label_name)
        class_names = np.array(table.encoding.class_names, dtype=object)
        columns = (*table.columns, class_names[table.labels])
    else:
        names, columns = table.column_names, table.cells
    width = len(columns)
    sources = [
        np.asarray(_csv_fields(column.tolist(), width == 1), dtype=object)
        if column.dtype == object
        else column
        for column in columns
    ]
    row_format = ",".join("%s" if c.dtype == object else "%.17g" for c in columns) + "\r\n"
    n_rows = columns[0].shape[0]

    def block(start: int) -> bytes:
        stop = min(start + _BLOCK_ROWS, n_rows)
        flat: list = [None] * ((stop - start) * width)
        for j, source in enumerate(sources):
            flat[j::width] = source[start:stop].tolist()
        return ((row_format * (stop - start)) % tuple(flat)).encode("utf-8")

    header = io.StringIO()
    csv.writer(header).writerow(names)
    try:
        with Path(path).open("wb") as handle, closing(
            parallel_imap(block, range(0, n_rows, _BLOCK_ROWS))
        ) as blocks:
            handle.write(header.getvalue().encode("utf-8"))
            handle.writelines(blocks)
    except OSError as exc:  # a directory or a full disk, say
        raise DataError(f"cannot write {path}: {exc.strerror}") from None
