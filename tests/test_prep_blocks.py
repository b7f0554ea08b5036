"""Block-wise CSV load and write, and the vectorised timestamp merge, against
the row-at-a-time reference layers in reference_prep.py."""

import calendar
import csv
import json
import tempfile
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_prep
from conftest import make_table
from flowgate import prep
from flowgate.cli import main
from flowgate.dataset import KIND_CATEGORICAL, KIND_LABEL, KIND_NUMERIC, ColumnSchema
from flowgate.errors import DataError
from flowgate.prep import RawTable, load_csv, merge_timestamps, write_csv
from flowgate.profiles import DatasetProfile, TimestampMerge

PROFILE = DatasetProfile(name="toy", label_column="Label", class_names=("A", "B"))

EDGE_REALS = (
    float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, -5e-324,
    2.2250738585072014e-308, 1e308, -1.7976931348623157e308, 0.1, 1 / 3, 1e16,
)
REAL_SPELLINGS = (
    "", "nan", "NaN", "inf", "-inf", "Infinity", "-Infinity", "-0.0", "0", "5e-324",
    "2.2250738585072014e-308", "1e308", "1e309", " 7 ", "1_000", "0x10", "3.25",
)
AWKWARD_TOKENS = ("", ",", '"', "\n", "\r", "\r\n", " ", "é", "日本", "a,b", 'say "hi"')

# the csv reader rejects NUL, and utf-8 cannot encode lone surrogates
_text = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"), max_size=4)
_real_token = st.one_of(
    st.sampled_from(REAL_SPELLINGS),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
_any_token = st.one_of(_real_token, st.sampled_from(AWKWARD_TOKENS), _text)


def _write_rows(path, rows):
    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        csv.writer(handle).writerows(rows)


def _assert_same_raw(got, want):
    assert got.schema == want.schema
    for col, a, b in zip(want.schema, got.cells, want.cells):
        assert a.dtype == b.dtype and a.shape == b.shape
        if col.kind == KIND_NUMERIC:
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), col.name
        else:
            assert a.tolist() == b.tolist(), col.name


@st.composite
def _token_grids(draw):
    """Header plus rows of tokens: per column, reals only, reals with a rare
    token that is not a real, or anything."""
    n_rows = draw(st.integers(0, 12))
    header = [f"c{j}" for j in range(draw(st.integers(0, 4)))]
    columns = []
    for _ in header:
        style = draw(st.sampled_from(("reals", "mostly_reals", "any")))
        if style == "reals":
            columns.append(draw(st.lists(_real_token, min_size=n_rows, max_size=n_rows)))
        elif style == "mostly_reals":
            tokens = draw(st.lists(_real_token, min_size=n_rows, max_size=n_rows))
            if n_rows:
                tokens[draw(st.integers(0, n_rows - 1))] = draw(st.sampled_from(("tcp", "x1")))
            columns.append(tokens)
        else:
            columns.append(draw(st.lists(_any_token, min_size=n_rows, max_size=n_rows)))
    label_at = draw(st.integers(0, len(header)))
    header.insert(label_at, "Label")
    columns.insert(label_at, draw(st.lists(_any_token, min_size=n_rows, max_size=n_rows)))
    return [header, *map(list, zip(*columns))]


@given(_token_grids(), st.integers(1, 4))
@settings(max_examples=150, deadline=None)
def test_block_load_and_write_match_the_row_reference(grid, block_rows):
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(prep, "_BLOCK_ROWS", block_rows)
        src = Path(tmp) / "in.csv"
        _write_rows(src, grid)
        got = load_csv(src, PROFILE)
        want = reference_prep.load_csv(src, PROFILE)
        _assert_same_raw(got, want)
        write_csv(got, Path(tmp) / "got.csv")
        reference_prep.write_csv(want, Path(tmp) / "want.csv")
        assert (Path(tmp) / "got.csv").read_bytes() == (Path(tmp) / "want.csv").read_bytes()


@given(
    st.integers(0, 10),
    st.integers(0, 3),
    st.integers(0, 2),
    st.integers(1, 4),
    st.data(),
)
@settings(max_examples=100, deadline=None)
def test_block_write_matches_the_row_reference(n_rows, n_reals, n_tokens, block_rows, data):
    reals = st.one_of(st.sampled_from(EDGE_REALS), st.floats(allow_subnormal=True))
    tokens = st.one_of(st.sampled_from(AWKWARD_TOKENS), _text)
    schema, cells = [], []
    for j in range(n_reals):
        schema.append(ColumnSchema(f"r{j}", KIND_NUMERIC, len(schema)))
        cells.append(np.array(data.draw(st.lists(reals, min_size=n_rows, max_size=n_rows)), dtype=np.float64))
    for j in range(n_tokens):
        schema.append(ColumnSchema(f"t{j}", KIND_CATEGORICAL, len(schema)))
        cells.append(np.array(data.draw(st.lists(tokens, min_size=n_rows, max_size=n_rows)), dtype=object))
    schema.append(ColumnSchema("Label", KIND_LABEL, len(schema)))
    cells.append(np.array(data.draw(st.lists(tokens, min_size=n_rows, max_size=n_rows)), dtype=object))
    raw = RawTable(schema, cells)
    labels = np.arange(n_rows) % 2
    features = np.column_stack(cells[:n_reals]) if n_reals else np.empty((n_rows, 0))
    encoded = make_table(features, labels, class_names=("", 'a "b",\r\n'))
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(prep, "_BLOCK_ROWS", block_rows)
        for table in (raw, encoded):
            write_csv(table, Path(tmp) / "got.csv")
            reference_prep.write_csv(table, Path(tmp) / "want.csv")
            assert (Path(tmp) / "got.csv").read_bytes() == (Path(tmp) / "want.csv").read_bytes()


def test_header_only_file(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("a,Label,b\n", encoding="utf-8")
    raw = load_csv(path, PROFILE)
    _assert_same_raw(raw, reference_prep.load_csv(path, PROFILE))
    assert raw.n_rows == 0
    assert [c.kind for c in raw.schema] == [KIND_NUMERIC, KIND_LABEL, KIND_NUMERIC]
    write_csv(raw, tmp_path / "out.csv")
    assert (tmp_path / "out.csv").read_bytes() == b"a,Label,b\r\n"


def test_column_demoted_in_its_third_block_rereads_its_tokens(tmp_path, monkeypatch):
    monkeypatch.setattr(prep, "_BLOCK_ROWS", 2)
    rereads = []
    reread = prep._reread_tokens
    monkeypatch.setattr(
        prep, "_reread_tokens", lambda path, idx: rereads.append(list(idx)) or reread(path, idx)
    )
    path = tmp_path / "d.csv"
    path.write_text(
        "x,y,Label\n1,1e0,A\n2.50,2,B\n-0,3,A\n,4,B\ntcp,5,A\n6,6,B\n", encoding="utf-8"
    )
    raw = load_csv(path, PROFILE)
    assert rereads == [[0]]
    assert raw.kind_of("x") == KIND_CATEGORICAL
    assert raw.column("x").tolist() == ["1", "2.50", "-0", "", "tcp", "6"]
    assert raw.column("y").tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    _assert_same_raw(raw, reference_prep.load_csv(path, PROFILE))


@given(st.integers(3, 14), st.integers(1, 4), st.sampled_from(([], ["1"], ["1", "2", "A", "9"])))
@settings(max_examples=40, deadline=None)
def test_ragged_line_in_a_later_block_names_its_line(n_rows, block_rows, ragged):
    rows = [["a", "b", "Label"]] + [[str(i), str(-i), "A"] for i in range(n_rows)]
    rows[n_rows - 1] = ragged  # a blank line reads as a row of no fields
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(prep, "_BLOCK_ROWS", block_rows)
        path = Path(tmp) / "r.csv"
        _write_rows(path, rows)
        with pytest.raises(DataError) as want:
            reference_prep.load_csv(path, PROFILE)
        with pytest.raises(DataError) as got:
            load_csv(path, PROFILE)
    assert str(got.value) == str(want.value)
    assert f"line {n_rows}:" in str(got.value)


@pytest.mark.parametrize("block_rows", [1, 2, 4096])
@pytest.mark.parametrize(
    "text, line",
    [
        # a quoted field spans lines 2-3: the ragged row is CSV record 3
        # but starts on line 4 of the file
        ('a,b,Label\n1,"x\ny",A\n3,C\n', 4),
        ('a,b,Label\n1,x,A\n2,"x\r\ny",B\n3,"p\nq\nr"\n4,z,A\n', 5),
    ],
)
def test_ragged_row_after_a_multiline_field_names_its_file_line(
    tmp_path, block_rows, text, line
):
    path = tmp_path / "m.csv"
    path.write_bytes(text.encode("utf-8"))
    message = f"line {line}: expected 3 fields, found 2"
    with pytest.raises(DataError, match=message):
        reference_prep.load_csv(path, PROFILE)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(prep, "_BLOCK_ROWS", block_rows)
        with pytest.raises(DataError, match=message):
            load_csv(path, PROFILE)


@pytest.mark.parametrize(
    "header, message",
    [("a,a,Label", "duplicate header names"), ("a,b,lbl", "label column 'Label' not present")],
)
def test_bad_header_is_reported_before_any_data_row(tmp_path, header, message):
    # the reference reads every row first, so it reports the ragged line 3
    path = tmp_path / "bad.csv"
    path.write_text(f"{header}\n1,2,A\n1,2\n", encoding="utf-8")
    with pytest.raises(DataError, match="line 3"):
        reference_prep.load_csv(path, PROFILE)
    with pytest.raises(DataError, match=message):
        load_csv(path, PROFILE)


# -- timestamp merge -------------------------------------------------------------

NAMES = tuple(f"s_{c}" for c in ("year", "month", "day", "hour", "minute", "second"))


def _components(rows):
    return [np.array(col, dtype=np.float64) for col in zip(*rows)]


def test_every_day_from_1900_to_2100_matches_timegm():
    first, last = date(1900, 1, 1).toordinal(), date(2100, 12, 31).toordinal()
    rows = []
    for k, ordinal in enumerate(range(first, last + 1)):
        day = date.fromordinal(ordinal)
        rows.append((day.year, day.month, day.day, k % 24, (7 * k) % 60, (13 * k) % 60))
    got = prep._epoch_seconds(_components(rows), NAMES)
    want = np.array([calendar.timegm(row) for row in rows], dtype=np.float64)
    assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "row",
    [
        (1, 1, 1, 0, 0, 0),
        (1, 12, 31, 23, 59, 59),
        (9999, 1, 1, 0, 0, 0),
        (9999, 12, 31, 23, 59, 59),
        (2000, 2, 29, 12, 0, 0),
        (1970, 1, 1, -0.0, 0, 0),
    ],
)
def test_edge_dates_match_timegm(row):
    got = prep._epoch_seconds(_components([row]), NAMES)
    assert got.tolist() == [float(calendar.timegm(tuple(int(v) for v in row)))]


GOOD = (2018, 2, 14, 8, 30, 0)


@pytest.mark.parametrize(
    "bad",
    [
        (float("nan"), 1, 1, 0, 0, 0),
        (2018, float("inf"), 1, 0, 0, 0),
        (2018, 1, float("-inf"), 0, 0, 0),
        (2018, 1, 1, 0, 0, 0.5),
        (2018, 1, 1, 0, 1e-300, 0),
        (0, 1, 1, 0, 0, 0),
        (-1, 1, 1, 0, 0, 0),
        (10000, 1, 1, 0, 0, 0),
        (1e6, 1, 1, 0, 0, 0),
        (2018, 0, 1, 0, 0, 0),
        (2018, 13, 1, 0, 0, 0),
        (2018, 1, 0, 0, 0, 0),
        (2018, 1, 32, 0, 0, 0),
        (2018, 4, 31, 0, 0, 0),
        (2019, 2, 29, 0, 0, 0),
        (1900, 2, 29, 0, 0, 0),
        (2100, 2, 29, 0, 0, 0),
        (2018, 1, 1, 24, 0, 0),
        (2018, 1, 1, -1, 0, 0),
        (2018, 1, 1, 0, 60, 0),
        (2018, 1, 1, 0, 0, 60),
        (2018, 1, 1, 0, 0, -1),
    ],
)
def test_each_invalid_component_keeps_the_reference_message(bad):
    # the first bad row (2) is reported, not the later one
    rows = [GOOD, GOOD, bad, GOOD, (2018, 13, 1, 0, 0, 0)]
    with pytest.raises(DataError) as want:
        reference_prep.epoch_seconds(_components(rows), NAMES)
    with pytest.raises(DataError) as got:
        prep._epoch_seconds(_components(rows), NAMES)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("row 2: ")


@pytest.mark.parametrize("bad", [(1e20, 1, 1, 0, 0, 0), (2018, -3e9, 1, 0, 0, 0), (2018, 1, 1, 0, 2**31, 0)])
def test_component_too_large_for_datetime_is_a_data_error(bad):
    rows = [GOOD, bad]
    with pytest.raises(OverflowError):
        reference_prep.epoch_seconds(_components(rows), NAMES)
    name = NAMES[next(i for i, v in enumerate(bad) if abs(v) >= 2**31)]
    with pytest.raises(DataError, match=f"row 1: timestamp component '{name}' is out of range"):
        prep._epoch_seconds(_components(rows), NAMES)


def test_huge_timestamp_component_exits_with_the_data_error_code(tmp_path, capsys):
    comps = ("year", "month", "day", "hour", "minute", "second")
    header = [f"s_{c}" for c in comps] + [f"e_{c}" for c in comps] + ["Label"]
    _write_rows(
        tmp_path / "t.csv",
        [header, [*GOOD, *GOOD, "A"], ["1e20", *GOOD[1:], *GOOD, "A"]],
    )
    profile = {
        "name": "stamped",
        "label_column": "Label",
        "class_names": ["A"],
        "timestamp_merge": {"start_columns": header[:6], "end_columns": header[6:12]},
    }
    (tmp_path / "p.json").write_text(json.dumps(profile), encoding="utf-8")
    code = main(["ingest", "--csv", str(tmp_path / "t.csv"), "--profile", str(tmp_path / "p.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert "row 1: timestamp component 's_year' is out of range" in err


def test_merge_matches_the_reference_on_valid_rows():
    rng = np.random.default_rng(4)
    n = 500
    start = np.column_stack([
        rng.integers(1, 10000, n), rng.integers(1, 13, n), rng.integers(1, 29, n),
        rng.integers(0, 24, n), rng.integers(0, 60, n), rng.integers(0, 60, n),
    ]).astype(np.float64)
    end_names = tuple(f"e_{c}" for c in ("year", "month", "day", "hour", "minute", "second"))
    schema = [ColumnSchema(n_, KIND_NUMERIC, i) for i, n_ in enumerate(NAMES + end_names)]
    schema.append(ColumnSchema("Label", KIND_LABEL, 12))
    raw = RawTable(schema, [*start.T, *start[::-1].T, np.array(["A"] * n, dtype=object)])
    profile = DatasetProfile(
        name="stamped", label_column="Label", class_names=("A",),
        timestamp_merge=TimestampMerge(NAMES, end_names),
    )
    merged = merge_timestamps(raw, profile)
    want = reference_prep.epoch_seconds(list(start.T), NAMES)
    assert np.array_equal(merged.column("stimestamp"), want)
    assert np.array_equal(merged.column("etimestamp"), want[::-1])
