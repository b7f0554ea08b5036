"""Seeded synthetic flow tables with controllable class mixes and hazards.

generate_flows builds well-separated isotropic Gaussian clusters, one per
class, with row quotas apportioned by largest remainder (every nonzero-ratio
class is floored at one row so tiny classes survive small samples). corrupt
injects exactly the hazards the cleaning pipeline removes, as appended rows
and columns, and records them in a ledger so pipeline bookkeeping can be
checked count for count and the original row set recovered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .dataset import KIND_LABEL, KIND_NUMERIC, ColumnSchema, ColumnarTable
from .errors import DataError
from .prep import RawTable
from .profiles import DatasetProfile, builtin_class_ratios


@dataclass(frozen=True)
class SynthSpec:
    n_rows: int
    class_names: tuple[str, ...]
    class_ratios: tuple[float, ...]
    n_features: int = 6
    cluster_separation: float = 8.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_rows < 1:
            raise DataError(f"n_rows must be >= 1, got {self.n_rows}")
        if self.n_features < 2:
            raise DataError(f"n_features must be >= 2, got {self.n_features}")
        if not 0.0 <= self.cluster_separation < math.inf:  # nan too
            raise DataError(
                f"cluster_separation must be finite and >= 0, got {self.cluster_separation}"
            )
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")
        if len(self.class_names) != len(self.class_ratios):
            raise DataError("class_names and class_ratios length mismatch")
        if not self.class_names:
            raise DataError("at least one class is required")
        repeated = sorted({c for c in self.class_names if self.class_names.count(c) > 1})
        if repeated:
            raise DataError(f"class_names repeats {repeated}")
        if any(r < 0 for r in self.class_ratios):
            raise DataError("class ratios must be non-negative")
        if abs(sum(self.class_ratios) - 1.0) > 1e-9:
            raise DataError(f"class ratios must sum to 1, got {sum(self.class_ratios)}")
        nonzero = sum(1 for r in self.class_ratios if r > 0)
        if self.n_rows < nonzero:
            raise DataError(
                f"n_rows={self.n_rows} cannot give each of {nonzero} nonzero-ratio "
                "classes at least one row; increase n_rows"
            )

    @classmethod
    def from_profile_name(cls, profile_name: str, n_rows: int, **settings: Any) -> "SynthSpec":
        """The spec of a builtin profile's class mix; ``settings`` are the
        other fields (``n_features``, ``cluster_separation``, ``seed``)."""
        ratios = builtin_class_ratios(profile_name)
        return cls(n_rows, tuple(ratios), tuple(ratios.values()), **settings)

    def profile(self) -> DatasetProfile:
        """Matching ingestion profile for tables emitted by this spec."""
        return DatasetProfile(
            name="synthetic",
            label_column="label",
            class_names=self.class_names,
        )


# Gaussian draws that generate_flows makes per call, in cells: its
# temporaries stay a few hundred KB at any table size.
_DRAW_CELLS = 1 << 14


def class_quotas(spec: SynthSpec) -> tuple[int, ...]:
    """Largest-remainder apportionment of n_rows over the class ratios.

    Every class with a nonzero ratio receives at least one row (a spec has
    at least as many rows as such classes); the rows are reclaimed from the
    classes whose quota most exceeds its real-valued target.
    """
    targets = [spec.n_rows * r for r in spec.class_ratios]
    quotas = [int(np.floor(t)) for t in targets]
    short = spec.n_rows - sum(quotas)
    remainders = sorted(
        range(len(targets)),
        key=lambda i: (-(targets[i] - quotas[i]), i),
    )
    for i in remainders[:short]:
        quotas[i] += 1
    # one-row floor for nonzero-ratio classes, reclaimed from the largest
    # quota-over-target surplus
    for i, ratio in enumerate(spec.class_ratios):
        if ratio > 0 and quotas[i] == 0:
            donor = max(
                (j for j in range(len(quotas)) if quotas[j] > 1),
                key=lambda j: (quotas[j] - targets[j], -j),
            )
            quotas[donor] -= 1
            quotas[i] += 1
    return tuple(quotas)


def generate_flows(spec: SynthSpec) -> ColumnarTable:
    """Isotropic unit-variance Gaussian cluster per class.

    Cluster centers sit on a common diagonal with consecutive spacing equal
    to cluster_separation, so all pairwise center distances are >= the
    separation. Rows are shuffled once so classes interleave.

    The features are drawn class by class, in slices of about _DRAW_CELLS
    cells (a seeded stream gives the same numbers in slices as in one draw),
    into the column-major block the table keeps, and each column is then
    shuffled through one column-sized temporary.
    """
    quotas = class_quotas(spec)
    rng = np.random.default_rng(spec.seed)
    d = spec.n_features
    direction = np.ones(d) / np.sqrt(d)
    features = np.empty((spec.n_rows, d), dtype=np.float64, order="F")
    labels = np.empty(spec.n_rows, dtype=np.int64)
    per_draw = max(1, _DRAW_CELLS // d)
    row = 0
    for class_id, quota in enumerate(quotas):
        center = class_id * spec.cluster_separation * direction
        for start in range(row, row + quota, per_draw):
            stop = min(start + per_draw, row + quota)
            features[start:stop] = center + rng.standard_normal((stop - start, d))
        labels[row : row + quota] = class_id
        row += quota
    perm = rng.permutation(spec.n_rows)
    for j in range(d):
        features[:, j] = features[perm, j]
    labels = labels[perm]

    schema = [ColumnSchema(f"f{j:02d}", KIND_NUMERIC, j) for j in range(d)]
    schema.append(ColumnSchema("label", KIND_LABEL, d))
    return ColumnarTable(schema, features, labels, spec.class_names)


@dataclass(frozen=True)
class CorruptionLedger:
    """Exact record of every injected hazard.

    duplicate_rows: (source row, appended row) index pairs; nan_cells and
    inf_cells: (appended row index, column name) per poked cell; the poked
    rows are appended copies, so the original rows survive cleaning.
    """

    n_original_rows: int
    duplicate_rows: tuple[tuple[int, int], ...]
    nan_cells: tuple[tuple[int, str], ...]
    inf_cells: tuple[tuple[int, str], ...]
    constant_columns: tuple[str, ...]

    @property
    def n_duplicate_rows(self) -> int:
        return len(self.duplicate_rows)

    @property
    def n_invalid_rows(self) -> int:
        return len(self.nan_cells) + len(self.inf_cells)

    @property
    def n_constant_columns(self) -> int:
        return len(self.constant_columns)


def hazard_rows(
    n_rows: int, dup_rate: float, nan_rate: float, inf_rate: float
) -> tuple[int, int, int]:
    """floor(rate * n_rows) duplicate, NaN and inf rows that ``corrupt``
    appends to a table of ``n_rows`` rows; errors when together they exceed
    the rows they are copied from."""
    counts = tuple(int(np.floor(rate * n_rows)) for rate in (dup_rate, nan_rate, inf_rate))
    if sum(counts) > n_rows:
        raise DataError("combined corruption rates exceed the available rows")
    return counts


def corrupt(
    table: ColumnarTable,
    dup_rate: float = 0.0,
    nan_rate: float = 0.0,
    inf_rate: float = 0.0,
    n_constant_cols: int = 0,
    seed: int = 0,
) -> tuple[RawTable, CorruptionLedger]:
    """Append floor(rate * n) hazard rows per kind plus constant columns.

    Duplicate rows are bit-exact copies of seeded originals. NaN/inf rows are
    copies of different seeded originals with one seeded feature cell poked,
    so the invalid-row filter removes exactly those copies. The label column
    is emitted as class-name tokens, making the result a pre-encoding table.
    """
    for name, rate in (("dup_rate", dup_rate), ("nan_rate", nan_rate), ("inf_rate", inf_rate)):
        if not 0.0 <= rate < 1.0:
            raise DataError(f"{name} must be in [0, 1), got {rate}")
    if n_constant_cols < 0:
        raise DataError(f"n_constant_cols must be >= 0, got {n_constant_cols}")
    n = table.n_rows
    d = table.n_features
    n_dup, n_nan, n_inf = hazard_rows(n, dup_rate, nan_rate, inf_rate)

    rng = np.random.default_rng(seed)
    chosen = rng.choice(n, size=n_dup + n_nan + n_inf, replace=False)
    dup_src = chosen[:n_dup]
    nan_src = chosen[n_dup : n_dup + n_nan]
    inf_src = chosen[n_dup + n_nan :]

    feature_names = table.feature_names
    appended = np.concatenate([dup_src, nan_src, inf_src])
    total_rows = n + len(appended)
    columns = []
    for source in table.columns:
        column = np.empty(total_rows, dtype=np.float64)
        column[:n] = source
        column[n:] = source[appended]
        columns.append(column)

    nan_cells = []
    inf_cells = []
    for offset in range(n_nan):
        row = n + n_dup + offset
        col = int(rng.integers(d))
        columns[col][row] = np.nan
        nan_cells.append((row, feature_names[col]))
    for offset in range(n_inf):
        row = n + n_dup + n_nan + offset
        col = int(rng.integers(d))
        columns[col][row] = np.inf if rng.integers(2) == 0 else -np.inf
        inf_cells.append((row, feature_names[col]))

    schema = [ColumnSchema(name, KIND_NUMERIC, j) for j, name in enumerate(feature_names)]
    schema.append(ColumnSchema(table.label_name, KIND_LABEL, len(schema)))
    class_names = np.asarray(table.encoding.class_names, dtype=object)
    cells = [*columns, class_names[np.concatenate([table.labels, table.labels[appended]])]]
    constant_names = []
    for j in range(n_constant_cols):
        cname = f"const_{j:02d}"
        constant_names.append(cname)
        schema.append(ColumnSchema(cname, KIND_NUMERIC, len(schema)))
        cells.append(np.zeros(total_rows, dtype=np.float64))

    ledger = CorruptionLedger(
        n_original_rows=n,
        duplicate_rows=tuple(
            (int(src), n + i) for i, src in enumerate(dup_src)
        ),
        nan_cells=tuple(nan_cells),
        inf_cells=tuple(inf_cells),
        constant_columns=tuple(constant_names),
    )
    return RawTable(schema, cells), ledger
