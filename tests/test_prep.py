"""Ingestion and cleaning pipeline: each stage alone, then the fixed order."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowgate.dataset import KIND_CATEGORICAL, KIND_LABEL, KIND_NUMERIC, ColumnSchema
from flowgate import prep
from flowgate.errors import DataError
from flowgate.prep import (
    FIT_FULL_DATASET,
    FIT_TRAIN_ONLY,
    STAGE_DROP_COLUMNS,
    STAGE_DROP_DUPLICATES,
    STAGE_DROP_INVALID,
    STAGE_DROP_ZERO_VARIANCE,
    STAGE_ENCODE,
    STAGE_LOAD,
    STAGE_MERGE,
    STAGE_NORMALIZE,
    STAGE_SPLIT,
    PrepOptions,
    PrepReport,
    RawTable,
    drop_duplicate_rows,
    drop_invalid_rows,
    drop_zero_variance_columns,
    encode_categoricals,
    load_csv,
    merge_timestamps,
    minmax_normalize,
    preprocess_pipeline,
    stratified_split,
    write_csv,
)
from flowgate.profiles import DatasetProfile, TimestampMerge

from conftest import make_table

PROFILE = DatasetProfile(name="toy", label_column="Label", class_names=("A", "B"))


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# -- load -----------------------------------------------------------------


def test_load_csv_types_by_content(tmp_path):
    path = _write(tmp_path, "a,b,Label\n1,x,A\n2,y,B\n")
    raw = load_csv(path, PROFILE)
    assert raw.kind_of("a") == KIND_NUMERIC
    assert raw.kind_of("b") == KIND_CATEGORICAL
    assert raw.kind_of("Label") == KIND_LABEL
    assert raw.column("a").tolist() == [1.0, 2.0]
    assert raw.column("b").tolist() == ["x", "y"]


def test_load_csv_parses_infinity_and_blank(tmp_path):
    path = _write(tmp_path, "a,Label\nInfinity,A\n-Infinity,B\n,A\n")
    raw = load_csv(path, PROFILE)
    col = raw.column("a")
    assert col[0] == np.inf
    assert col[1] == -np.inf
    assert np.isnan(col[2])


def test_load_csv_ragged_row_names_the_line(tmp_path):
    path = _write(tmp_path, "a,b,Label\n1,x,A\n2,B\n")
    with pytest.raises(DataError, match="line 3"):
        load_csv(path, PROFILE)


def test_load_csv_requires_label_column(tmp_path):
    path = _write(tmp_path, "a,b\n1,x\n")
    with pytest.raises(DataError, match="Label"):
        load_csv(path, PROFILE)


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(DataError, match="missing file"):
        load_csv(tmp_path / "absent.csv", PROFILE)


# -- timestamp merge ---------------------------------------------------------


def _merge_profile():
    comps = ("year", "month", "day", "hour", "minute", "second")
    return DatasetProfile(
        name="stamped",
        label_column="Label",
        class_names=("A",),
        timestamp_merge=TimestampMerge(
            tuple(f"s_{c}" for c in comps), tuple(f"e_{c}" for c in comps)
        ),
    )


def _stamped_raw(start, end):
    names = [f"s_{c}" for c in ("year", "month", "day", "hour", "minute", "second")]
    names += [f"e_{c}" for c in ("year", "month", "day", "hour", "minute", "second")]
    schema = [ColumnSchema(n, KIND_NUMERIC, i) for i, n in enumerate(names)]
    schema.append(ColumnSchema("Label", KIND_LABEL, len(names)))
    cells = [np.array([float(v)]) for v in (*start, *end)]
    cells.append(np.array(["A"], dtype=object))
    return RawTable(schema, cells)


def test_merge_timestamps_epoch_seconds():
    raw = _stamped_raw((2020, 1, 2, 3, 4, 5), (1970, 1, 1, 0, 0, 0))
    merged = merge_timestamps(raw, _merge_profile())
    # oracle: np.datetime64("2020-01-02T03:04:05") - epoch = 1577934245 s
    assert merged.column("stimestamp")[0] == 1577934245.0
    assert merged.column("etimestamp")[0] == 0.0
    assert merged.n_columns == 3
    assert merged.kind_of("stimestamp") == "timestamp"


def test_merge_timestamps_rejects_fractional_components():
    raw = _stamped_raw((2020, 1, 2, 3, 4, 5.5), (1970, 1, 1, 0, 0, 0))
    with pytest.raises(DataError, match="s_second"):
        merge_timestamps(raw, _merge_profile())


def test_merge_timestamps_rejects_impossible_dates():
    raw = _stamped_raw((2020, 13, 2, 3, 4, 5), (1970, 1, 1, 0, 0, 0))
    with pytest.raises(DataError, match="invalid timestamp"):
        merge_timestamps(raw, _merge_profile())


def test_merge_without_config_is_identity():
    raw = RawTable(
        (ColumnSchema("a", KIND_NUMERIC, 0), ColumnSchema("Label", KIND_LABEL, 1)),
        [np.array([1.0]), np.array(["A"], dtype=object)],
    )
    assert merge_timestamps(raw, PROFILE) is raw


# -- row and column filters ------------------------------------------------------


def _numeric_raw(matrix, labels=None):
    matrix = np.asarray(matrix, dtype=np.float64)
    n, d = matrix.shape
    schema = [ColumnSchema(f"c{j}", KIND_NUMERIC, j) for j in range(d)]
    schema.append(ColumnSchema("Label", KIND_LABEL, d))
    cells = [matrix[:, j] for j in range(d)]
    cells.append(np.asarray(labels if labels is not None else ["A"] * n, dtype=object))
    return RawTable(schema, cells)


def test_drop_invalid_rows_removes_nan_and_inf():
    raw = _numeric_raw([[1, 2], [np.nan, 3], [4, np.inf]])
    out, details = drop_invalid_rows(raw)
    assert out.n_rows == 1
    assert out.column("c0").tolist() == [1.0]
    report = PrepReport()
    report.add(STAGE_DROP_INVALID, raw, out, details)
    (entry,) = report.entries
    assert entry.rows_before == 3
    assert entry.rows_after == 1
    assert entry.stage == STAGE_DROP_INVALID
    assert entry.details == "removed 2 rows with NaN or infinite values"


def test_drop_invalid_rows_ignores_token_columns():
    raw = RawTable(
        (ColumnSchema("t", KIND_CATEGORICAL, 0), ColumnSchema("Label", KIND_LABEL, 1)),
        [np.array(["nan", "inf"], dtype=object), np.array(["A", "B"], dtype=object)],
    )
    out, _ = drop_invalid_rows(raw)
    assert out.n_rows == 2


def test_drop_duplicates_keeps_first_occurrence_order():
    raw = _numeric_raw([[1, 1], [2, 2], [1, 1], [3, 3]], ["A", "B", "A", "A"])
    out, details = drop_duplicate_rows(raw)
    assert out.column("c0").tolist() == [1.0, 2.0, 3.0]
    assert raw.n_rows - out.n_rows == 1
    assert details == "removed 1 duplicate rows (first occurrence kept)"


def test_duplicate_rows_differing_only_in_label_are_kept():
    raw = _numeric_raw([[1, 1], [1, 1]], ["A", "B"])
    out, _ = drop_duplicate_rows(raw)
    assert out.n_rows == 2


def test_drop_zero_variance_is_exact():
    raw = _numeric_raw([[0, 0, 5], [0, 0, 5], [0, 1, 5]])
    out, details = drop_zero_variance_columns(raw)
    # c0 and c2 are constant; c1 has two values and stays
    assert out.column_names == ("c1", "Label")
    assert "c0" in details and "c2" in details


def test_drop_zero_variance_never_touches_label():
    raw = _numeric_raw([[1], [2]], ["A", "A"])
    out, _ = drop_zero_variance_columns(raw)
    assert "Label" in out.column_names


# -- encoding ---------------------------------------------------------------


def test_encode_categoricals_first_occurrence_order():
    raw = RawTable(
        (
            ColumnSchema("proto", KIND_CATEGORICAL, 0),
            ColumnSchema("Label", KIND_LABEL, 1),
        ),
        [
            np.array(["tcp", "udp", "tcp"], dtype=object),
            np.array(["A", "B", "A"], dtype=object),
        ],
    )
    table = encode_categoricals(raw, PROFILE)
    assert table.columns[0].tolist() == [0.0, 1.0, 0.0]
    assert table.labels.tolist() == [0, 1, 0]


def test_encode_label_follows_profile_order_not_occurrence():
    raw = RawTable(
        (ColumnSchema("x", KIND_NUMERIC, 0), ColumnSchema("Label", KIND_LABEL, 1)),
        [np.array([1.0, 2.0]), np.array(["B", "A"], dtype=object)],
    )
    table = encode_categoricals(raw, PROFILE)
    assert table.labels.tolist() == [1, 0]
    assert table.encoding.class_names == ("A", "B")


def test_encode_unknown_label_value():
    # the error names the lowest unknown value, whatever the row order
    for labels, named in ((["C"], "C"), (["Zed", "A", "C", "Bee", "B", "Bee"], "Bee")):
        raw = RawTable(
            (ColumnSchema("x", KIND_NUMERIC, 0), ColumnSchema("Label", KIND_LABEL, 1)),
            [np.zeros(len(labels)), np.array(labels, dtype=object)],
        )
        with pytest.raises(DataError) as info:
            encode_categoricals(raw, PROFILE)
        assert str(info.value) == f"unknown label value {named!r}"


# -- normalization ------------------------------------------------------------


def test_minmax_midpoint_and_endpoints():
    table = make_table(np.array([[0.0], [5.0], [10.0]]), np.array([0, 1, 0]))
    normalized, stats = minmax_normalize(table)
    assert normalized.columns[0].tolist() == [0.0, 0.5, 1.0]
    assert stats.minimums[0] == 0.0
    assert stats.maximums[0] == 10.0


def test_minmax_constant_column_maps_to_zero():
    table = make_table(np.full((3, 1), 7.0), np.array([0, 1, 0]))
    normalized, _ = minmax_normalize(table)
    assert normalized.columns[0].tolist() == [0.0, 0.0, 0.0]


def test_minmax_with_foreign_stats_can_leave_unit_interval():
    fit_on = make_table(np.array([[0.0], [10.0]]), np.array([0, 1]))
    _, stats = minmax_normalize(fit_on)
    apply_to = make_table(np.array([[20.0]]), np.array([0]))
    out, _ = minmax_normalize(apply_to, stats=stats)
    assert out.columns[0][0] == 2.0


def test_minmax_stats_feature_mismatch():
    fit_on = make_table(np.zeros((2, 1)), np.array([0, 1]))
    _, stats = minmax_normalize(fit_on)
    other = make_table(np.zeros((2, 2)), np.array([0, 1]))
    with pytest.raises(DataError, match="different features"):
        minmax_normalize(other, stats=stats)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_minmax_lands_in_unit_interval(seed):
    rng = np.random.default_rng(seed)
    table = make_table(rng.normal(0, 100, size=(30, 3)), rng.integers(0, 2, size=30))
    normalized, _ = minmax_normalize(table)
    for col in normalized.columns:
        assert col.min() >= 0.0 and col.max() <= 1.0


def test_minmax_idempotent_within_float_noise():
    rng = np.random.default_rng(3)
    table = make_table(rng.normal(size=(50, 2)), rng.integers(0, 2, size=50))
    once, _ = minmax_normalize(table)
    twice, _ = minmax_normalize(once)
    for a, b in zip(once.columns, twice.columns):
        assert np.max(np.abs(a - b)) < 1e-12


# -- split ---------------------------------------------------------------------


def test_split_counts_round_half_up():
    y = np.concatenate([np.zeros(80, dtype=np.int64), np.ones(20, dtype=np.int64)])
    table = make_table(np.arange(100, dtype=np.float64)[:, None], y)
    split = stratified_split(table, 0.8, seed=0)
    assert split.train.encoding.counts == (64, 16)
    assert split.test.encoding.counts == (16, 4)


def test_split_single_row_class_goes_to_train():
    y = np.array([0, 0, 0, 0, 1])
    table = make_table(np.arange(5, dtype=np.float64)[:, None], y)
    split = stratified_split(table, 0.8, seed=1)
    # round-half-up(0.8 * 1) = 1: the lone row lands in train
    assert split.train.encoding.counts == (3, 1)
    assert split.test.encoding.counts == (1, 0)


def test_split_rejects_zero_count_class():
    y = np.array([0, 0])
    table = make_table(
        np.zeros((2, 1)),
        y,
        class_names=("seen", "ghost"),
    )
    with pytest.raises(DataError, match="ghost"):
        stratified_split(table, 0.8, seed=0)


def test_split_same_seed_same_rows():
    rng = np.random.default_rng(5)
    table = make_table(rng.normal(size=(60, 2)), rng.integers(0, 3, size=60))
    a = stratified_split(table, 0.7, seed=42)
    b = stratified_split(table, 0.7, seed=42)
    assert np.array_equal(a.train.feature_matrix(), b.train.feature_matrix())
    assert np.array_equal(a.test.labels, b.test.labels)


def test_split_different_seed_usually_differs():
    rng = np.random.default_rng(6)
    table = make_table(rng.normal(size=(60, 2)), rng.integers(0, 2, size=60))
    a = stratified_split(table, 0.5, seed=1)
    b = stratified_split(table, 0.5, seed=2)
    assert not np.array_equal(a.train.feature_matrix(), b.train.feature_matrix())


def test_split_preserves_row_order_within_sides():
    table = make_table(
        np.arange(10, dtype=np.float64)[:, None], np.zeros(10, dtype=np.int64)
    )
    split = stratified_split(table, 0.6, seed=9)
    assert np.all(np.diff(split.train.columns[0]) > 0)
    assert np.all(np.diff(split.test.columns[0]) > 0)


@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(2, 40), min_size=1, max_size=5),
    st.floats(0.1, 0.9),
)
@settings(max_examples=40, deadline=None)
def test_split_per_class_off_by_at_most_one_row(seed, class_sizes, ratio):
    y = np.concatenate(
        [np.full(size, k, dtype=np.int64) for k, size in enumerate(class_sizes)]
    )
    table = make_table(
        np.arange(y.size, dtype=np.float64)[:, None], np.random.default_rng(seed).permutation(y)
    )
    split = stratified_split(table, ratio, seed=seed)
    for n_c, train_c in zip(table.encoding.counts, split.train.encoding.counts):
        assert abs(train_c - ratio * n_c) <= 0.5 + 1e-9


# -- full pipeline ---------------------------------------------------------------


PIPELINE_CSV = (
    "a,b,junk,const,Label\n"
    "1,tcp,9,0,A\n"
    "2,udp,9,0,B\n"
    "1,tcp,9,0,A\n"        # duplicate of row 1
    "NaN,tcp,9,0,A\n"       # invalid
    "4,tcp,9,0,A\n"
    "5,udp,9,0,B\n"
)


def test_pipeline_stage_order_and_counts(tmp_path):
    path = _write(tmp_path, PIPELINE_CSV)
    profile = DatasetProfile(
        name="toy", label_column="Label", class_names=("A", "B"), drop_columns=("junk",)
    )
    split, report = preprocess_pipeline(
        path, profile, PrepOptions(split_ratio=0.5, seed=0)
    )
    assert [e.stage for e in report.entries] == [
        STAGE_LOAD,
        STAGE_MERGE,
        STAGE_DROP_COLUMNS,
        STAGE_DROP_INVALID,
        STAGE_DROP_DUPLICATES,
        STAGE_DROP_ZERO_VARIANCE,
        STAGE_ENCODE,
        STAGE_NORMALIZE,
        STAGE_SPLIT,
    ]
    by_stage = {e.stage: e for e in report.entries}
    assert by_stage[STAGE_DROP_INVALID].rows_before == 6
    assert by_stage[STAGE_DROP_INVALID].rows_after == 5
    assert by_stage[STAGE_DROP_DUPLICATES].rows_after == 4
    # 'const' is constant, 'junk' was dropped by name before the variance pass
    assert by_stage[STAGE_DROP_ZERO_VARIANCE].columns_after == 3
    assert split.train.n_rows + split.test.n_rows == 4


def test_pipeline_accepts_in_memory_table(tmp_path):
    raw = _numeric_raw([[0.0, 1.0], [1.0, 0.0], [2.0, 5.0], [3.0, 4.0]], ["A", "B", "A", "B"])
    split, report = preprocess_pipeline(
        raw, PROFILE, PrepOptions(split_ratio=0.5, seed=3)
    )
    assert report.entries[0].details == "source=memory"
    assert split.train.n_rows == 2


def test_pipeline_train_only_scope_fits_on_train(tmp_path):
    raw = _numeric_raw(
        [[0.0, 0.0], [10.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0], [5.0, 5.0]],
        ["A", "B", "A", "B", "A", "B"],
    )
    split, _ = preprocess_pipeline(
        raw,
        PROFILE,
        PrepOptions(split_ratio=0.5, seed=11, fit_scope=FIT_TRAIN_ONLY),
    )
    train_cols = np.concatenate([c for c in split.train.columns])
    assert train_cols.min() >= 0.0 and train_cols.max() <= 1.0
    # test side may exceed [0, 1]; with full-dataset scope it cannot
    full_split, _ = preprocess_pipeline(
        raw, PROFILE, PrepOptions(split_ratio=0.5, seed=11, fit_scope=FIT_FULL_DATASET)
    )
    test_cols = np.concatenate([c for c in full_split.test.columns])
    assert test_cols.min() >= 0.0 and test_cols.max() <= 1.0


def test_write_csv_round_trip(tmp_path):
    raw = _numeric_raw([[1.5, 2.0], [3.25, 4.0]], ["A", "B"])
    path = tmp_path / "out.csv"
    write_csv(raw, path)
    again = load_csv(path, PROFILE)
    assert again.column("c0").tolist() == [1.5, 3.25]
    assert again.column("Label").tolist() == ["A", "B"]


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full device")
@pytest.mark.parametrize("rows", [2, 20_000], ids=["on-close", "mid-write"])
def test_write_csv_to_a_full_device_is_a_data_error(rows):
    # two rows stay in the write buffer until the file closes; 20,000 rows
    # make several blocks, which fail while the stream is open
    raw = _numeric_raw(np.arange(2.0 * rows).reshape(rows, 2))
    with pytest.raises(DataError, match="^cannot write /dev/full: No space left on device$"):
        write_csv(raw, "/dev/full")


# -- pinned outputs ------------------------------------------------------------

# tests/data/prep_pinned_*: one CSV with timestamp component columns, a
# categorical column, an absent drop column, NaN, infinities, duplicate rows
# and a constant column, run through both fit scopes. The expected files were
# recorded before the stages stopped building report entries themselves and
# must not change.
PINNED = Path(__file__).parent / "data"
_COMPONENTS = ("year", "month", "day", "hour", "minute", "second")
PINNED_PROFILE = DatasetProfile(
    name="pinned",
    label_column="Label",
    class_names=("A", "B", "C"),
    drop_columns=("ID", "ghost"),
    timestamp_merge=TimestampMerge(
        tuple(f"s_{c}" for c in _COMPONENTS), tuple(f"e_{c}" for c in _COMPONENTS)
    ),
)


def _pinned_run(fit_scope):
    return preprocess_pipeline(
        Path("prep_pinned_input.csv"),
        PINNED_PROFILE,
        PrepOptions(split_ratio=0.75, seed=7, fit_scope=fit_scope),
    )


def test_pinned_reports_are_unchanged(monkeypatch):
    monkeypatch.chdir(PINNED)  # the load entry names its source path
    doc = {}
    for scope in (FIT_FULL_DATASET, FIT_TRAIN_ONLY):
        _, report = _pinned_run(scope)
        doc[scope] = {"dicts": report.to_dicts(), "lines": report.to_lines()}
    expected = (PINNED / "prep_pinned_report.json").read_text(encoding="utf-8")
    assert json.dumps(doc, indent=2) + "\n" == expected


def test_pinned_csv_bytes_are_unchanged(monkeypatch, tmp_path):
    monkeypatch.chdir(PINNED)
    write_csv(load_csv("prep_pinned_input.csv", PINNED_PROFILE), tmp_path / "raw.csv")
    split, _ = _pinned_run(FIT_FULL_DATASET)
    write_csv(split.train, tmp_path / "encoded.csv")
    for name in ("raw", "encoded"):
        expected = (PINNED / f"prep_pinned_{name}.csv").read_bytes()
        assert (tmp_path / f"{name}.csv").read_bytes() == expected


# -- stage lookup ----------------------------------------------------------------

TRACED_STAGES = (
    "load_csv",
    "merge_timestamps",
    "drop_columns_by_name",
    "drop_invalid_rows",
    "drop_duplicate_rows",
    "drop_zero_variance_columns",
    "encode_categoricals",
    "minmax_normalize",
    "stratified_split",
)


def test_pipeline_calls_each_stage_by_its_module_name(monkeypatch):
    # per-stage timers wrap these module attributes, so the pipeline must look
    # each stage up by name when it runs
    calls = dict.fromkeys(TRACED_STAGES, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in TRACED_STAGES:
        monkeypatch.setattr(prep, name, counting(name, getattr(prep, name)))
    monkeypatch.chdir(PINNED)
    _pinned_run(FIT_FULL_DATASET)
    assert calls == dict.fromkeys(TRACED_STAGES, 1)
