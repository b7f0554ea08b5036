"""Block-wise and chunked CSV load, block-wise write, and the vectorised
timestamp merge, against the row-at-a-time reference layers in
reference_prep.py, at 1, 2 and 4 worker processes."""

import calendar
import codecs
import csv
import itertools
import json
import os
import tempfile
import threading
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
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


def _set_workers(mp, cap, chunk_bytes):
    """``cap`` workers on four usable CPUs, and load chunks of about
    ``chunk_bytes``."""
    mp.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
    mp.setenv("FLOWGATE_THREADS", str(cap))
    mp.setattr(prep, "_CHUNK_BYTES", chunk_bytes)


_caps = st.sampled_from((1, 2, 4))
# a header line longer than one chunk sends the file to one csv reader, not
# through chunks, so the chunks are no shorter than the longest header here
# (22 bytes)
_chunk_bytes = st.integers(24, 96)


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


@given(_token_grids(), st.integers(1, 4), _caps, _chunk_bytes)
@settings(max_examples=150, deadline=None)
def test_block_load_and_write_match_the_row_reference(grid, block_rows, cap, chunk_bytes):
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(prep, "_BLOCK_ROWS", block_rows)
        _set_workers(mp, cap, chunk_bytes)
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
    _caps,
    _chunk_bytes,
    st.data(),
)
@settings(max_examples=100, deadline=None)
def test_block_write_matches_the_row_reference(
    n_rows, n_reals, n_tokens, block_rows, cap, chunk_bytes, data
):
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
        _set_workers(mp, cap, chunk_bytes)
        for table in (raw, encoded):
            write_csv(table, Path(tmp) / "got.csv")
            reference_prep.write_csv(table, Path(tmp) / "want.csv")
            assert (Path(tmp) / "got.csv").read_bytes() == (Path(tmp) / "want.csv").read_bytes()
        # and the raw table's file reads back as the reference reads it
        write_csv(raw, Path(tmp) / "got.csv")
        got = load_csv(Path(tmp) / "got.csv", PROFILE)
        _assert_same_raw(got, reference_prep.load_csv(Path(tmp) / "got.csv", PROFILE))


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
    maps = []
    imap = prep.parallel_imap
    monkeypatch.setattr(
        prep, "parallel_imap", lambda fn, items: maps.append(list(items)) or imap(fn, items)
    )
    monkeypatch.setattr(prep, "_BLOCK_ROWS", 2)
    path = tmp_path / "d.csv"
    rows = ["x,y,Label", "1,1e0,A", "2.50,2,B", "-0,3,A", ",4,B", "tcp,5,A", "6,6,B"]
    # x is demoted in the third block of 2 rows, which ends the third chunk
    # of about 10 bytes or the one chunk of 4096. The second read, for x
    # only, maps the same chunks as the first, the first one (parsed by the
    # caller) aside, at any cap; with a quote both reads go to one csv reader
    # and map nothing.
    for label, chunk_bytes, want_maps in (
        ("A", 10, [[(27, 39), (39, 53)]] * 2),
        ("A", 4096, [[], []]),
        ('"A"', 10, []),
    ):
        rows[1] = f"1,1e0,{label}"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        for cap in (1, 2):
            _set_workers(monkeypatch, cap, chunk_bytes)
            maps.clear()
            raw = load_csv(path, PROFILE)
            assert maps == want_maps
            assert raw.kind_of("x") == KIND_CATEGORICAL
            assert raw.column("x").tolist() == ["1", "2.50", "-0", "", "tcp", "6"]
            assert raw.column("y").tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
            _assert_same_raw(raw, reference_prep.load_csv(path, PROFILE))


@given(
    st.integers(3, 14),
    st.integers(1, 4),
    st.sampled_from(([], ["1"], ["1", "2", "A", "9"])),
    _caps,
    _chunk_bytes,
)
@settings(max_examples=40, deadline=None)
def test_ragged_line_in_a_later_block_names_its_line(n_rows, block_rows, ragged, cap, chunk_bytes):
    rows = [["a", "b", "Label"]] + [[str(i), str(-i), "A"] for i in range(n_rows)]
    rows[n_rows - 1] = ragged  # a blank line reads as a row of no fields
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(prep, "_BLOCK_ROWS", block_rows)
        _set_workers(mp, cap, chunk_bytes)
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
        # a bare "\r" in a quoted field ends a line too, and "\r\n" one
        ('a,b,Label\r1,"x\ry\r\n",A\r\n3,C\n', 5),
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
    for cap in (1, 2, 4):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(prep, "_BLOCK_ROWS", block_rows)
            _set_workers(mp, cap, 12)
            with pytest.raises(DataError, match=message):
                load_csv(path, PROFILE)


def _load_outcome(path):
    try:
        return load_csv(path, PROFILE)
    except DataError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "row",
    [b'7,z,"p\n8,y,B"', b"7,caf\xe9,B", b"7,a\x00b,B", b"7,\xef\xbb\xbf,B", b"7,z,B\r8,y,A"],
    ids=["multiline-quoted", "latin-1", "nul", "mid-file-bom", "bare-cr"],
)
def test_a_row_in_a_later_chunk_reads_as_at_one_worker(tmp_path, monkeypatch, row):
    # 40 rows of about 8 bytes, then the row, then one with no newline, in
    # chunks of 24 to 47 bytes: some cut lands inside each byte of the row,
    # and on each side of the quoted newline the record reads as 3 fields
    body = [b"a,b,Label"] + [b"%d,x%d,A" % (i, i) for i in range(40)] + [row, b"9,y,B"]
    path = tmp_path / "c.csv"
    path.write_bytes(b"\n".join(body))
    _set_workers(monkeypatch, 1, 32)
    want = _load_outcome(path)
    for cap, chunk_bytes in itertools.product((2, 4), range(24, 48)):
        _set_workers(monkeypatch, cap, chunk_bytes)
        got = _load_outcome(path)
        if isinstance(want, str):
            assert got == want
        else:
            _assert_same_raw(got, want)
    if isinstance(want, str):
        assert want.startswith(f"{path}: not UTF-8 text")
    else:
        _assert_same_raw(want, reference_prep.load_csv(path, PROFILE))


def test_a_pipe_is_read_by_the_record_reader(tmp_path, monkeypatch):
    # a pipe cannot be cut into chunks by offset; `--csv <(zcat f.csv.gz)` reads one
    path = tmp_path / "p.csv"
    _write_rows(path, [["a", "b", "Label"]] + [[str(i), str(i / 7), "AB"[i % 2]] for i in range(200)])
    _set_workers(monkeypatch, 2, 24)
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, path.read_bytes())  # under the 64 KiB a pipe holds
        os.close(write_end)
        got = load_csv(f"/dev/fd/{read_end}", PROFILE)
    finally:
        os.close(read_end)
    _assert_same_raw(got, load_csv(path, PROFILE))


def _load_fifo(tmp_path, data):
    """load_csv's outcome on a named pipe into which a thread writes ``data``,
    which the pipe's buffer holds whole."""
    fifo = tmp_path / "fifo.csv"
    os.mkfifo(fifo)

    def write():
        with fifo.open("wb") as pipe:  # waits for the reader to open it
            pipe.write(data)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        return _load_outcome(fifo)
    finally:
        writer.join(timeout=10)
        fifo.unlink()
        assert not writer.is_alive()


@pytest.mark.parametrize("cap", [1, 2])
def test_a_named_pipe_loads_as_the_same_bytes_in_a_file(tmp_path, monkeypatch, cap):
    rows = [["a", "b", "Label"]] + [[str(i), str(i / 7), "AB"[i % 2]] for i in range(200)]
    path = tmp_path / "f.csv"
    _set_workers(monkeypatch, cap, 24)
    _write_rows(path, rows)
    _assert_same_raw(_load_fifo(tmp_path, path.read_bytes()), load_csv(path, PROFILE))
    rows[150] = ["1", "2"]
    _write_rows(path, rows)
    got = _load_fifo(tmp_path, path.read_bytes())
    assert got == f"{tmp_path / 'fifo.csv'}: line 151: expected 3 fields, found 2"
    assert _load_outcome(path) == f"{path}: line 151: expected 3 fields, found 2"
    # a column demoted after its first block needs a second read, which a
    # pipe cannot give
    rows[150] = ["tcp", "2", "A"]
    _write_rows(path, rows)
    monkeypatch.setattr(prep, "_BLOCK_ROWS", 16)
    assert load_csv(path, PROFILE).kind_of("a") == KIND_CATEGORICAL
    got = _load_fifo(tmp_path, path.read_bytes())
    assert got.endswith("column 'a' is not numeric after its first rows, and a file that "
                        "cannot seek cannot be read again for its tokens")


_line_ends = st.sampled_from(("\r", "\n", "\r\n"))


@given(
    st.lists(st.tuples(st.integers(-99, 99), st.sampled_from("AB"), _line_ends), max_size=40),
    _line_ends,
    st.booleans(),
    _caps,
    _chunk_bytes,
)
@example([(i, "A", "\r") for i in range(40)], "\r", False, 2, 24)
@example([(i, "AB"[i % 2], ("\r", "\r\n", "\n")[i % 3]) for i in range(40)], "\n", False, 4, 24)
@example([(i, "A", "\r" if i == 19 else "\n") for i in range(40)], "\n", True, 2, 32)
@settings(max_examples=100, deadline=None)
def test_cr_only_and_mixed_line_ends_read_as_the_reference(rows, header_end, blank, cap, chunk_bytes):
    # the chunk cutter splits only after "\n", where a file reader also ends
    # a line at a bare "\r": a row ending in "\r" and then an empty line
    # "\r\n" is a ragged row
    lines = [f"{i},{i / 7},{label}{end}" for i, label, end in rows]
    if blank:
        lines.insert(len(lines) // 2, "\r\n")
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        _set_workers(mp, cap, chunk_bytes)
        path = Path(tmp) / "cr.csv"
        path.write_bytes("".join(["a,b,Label", header_end, *lines]).encode("utf-8"))
        got = _load_outcome(path)
        try:
            want = reference_prep.load_csv(path, PROFILE)
        except DataError as exc:
            assert got == str(exc)
        else:
            _assert_same_raw(got, want)


@pytest.mark.parametrize("header", ["flow_id,a,Label", "Label,a,b", '"Label",a,b'])
@pytest.mark.parametrize("cap", [1, 2])
def test_a_byte_order_mark_before_the_header_is_dropped(tmp_path, monkeypatch, header, cap):
    names = next(csv.reader([header]))
    rows = [
        ",".join("AB"[i % 2] if name == "Label" else str(i * k) for k, name in enumerate(names))
        for i in range(30)
    ]
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
    _set_workers(monkeypatch, cap, 64)
    got = load_csv(marked, PROFILE)
    assert got.column_names == tuple(names)
    _assert_same_raw(got, load_csv(plain, PROFILE))


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
