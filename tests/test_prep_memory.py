"""Bounded-memory prep: the hashed dedup against the whole-row reference in
reference_prep.py, one str per distinct token after load_csv, and the
pipeline's allocation peak against its final float64 table."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_prep
from flowgate import prep
from flowgate.dataset import KIND_CATEGORICAL, KIND_LABEL, KIND_NUMERIC, ColumnSchema
from flowgate.prep import RawTable, drop_duplicate_rows, load_csv, preprocess_pipeline, write_csv
from flowgate.profiles import DatasetProfile
from flowgate.synth import SynthSpec, corrupt, generate_flows

# 0.0, -0.0, the default NaN, a NaN with a payload, a negative NaN, an
# infinity, 1.0 and the smallest subnormal
FLOAT_BITS = (
    0, 1 << 63, 0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000,
    0x7FF0000000000000, 0x3FF0000000000000, 1,
)
TOKENS = ("", "a", "b", "tcp", "é")
LABELS = ("A0", "B1", "C2")


def _own_str(text: str) -> str:
    """An equal str that is a new object (texts of two or more characters)."""
    return (text + " ")[:-1]


@st.composite
def _tables_with_duplicates(draw):
    """A RawTable whose rows are drawn from a small pool, so most repeat; the
    label cells are distinct objects, so the kept rows can be told apart."""
    n_reals = draw(st.integers(0, 3))
    n_tokens = draw(st.integers(0, 2))
    row = st.tuples(
        st.lists(st.sampled_from(FLOAT_BITS), min_size=n_reals, max_size=n_reals),
        st.lists(st.sampled_from(TOKENS), min_size=n_tokens, max_size=n_tokens),
        st.sampled_from(LABELS),
    )
    pool = draw(st.lists(row, min_size=1, max_size=6))
    rows = [pool[i] for i in draw(st.lists(st.integers(0, len(pool) - 1), max_size=40))]
    schema, cells = [], []
    for j in range(n_reals):
        schema.append(ColumnSchema(f"r{j}", KIND_NUMERIC, len(schema)))
        bits = np.array([r[0][j] for r in rows], dtype=np.uint64)
        cells.append(bits.view(np.float64))
    for j in range(n_tokens):
        schema.append(ColumnSchema(f"t{j}", KIND_CATEGORICAL, len(schema)))
        cells.append(np.array([r[1][j] for r in rows], dtype=object))
    schema.append(ColumnSchema("Label", KIND_LABEL, len(schema)))
    cells.append(np.array([_own_str(r[2]) for r in rows], dtype=object))
    return RawTable(schema, cells)


def _kept_rows(raw: RawTable, out: RawTable) -> list[int]:
    """Indices of the rows of ``raw`` that ``out`` holds, by label identity."""
    index_of = {id(token): i for i, token in enumerate(raw.column("Label"))}
    assert len(index_of) == raw.n_rows
    return [index_of[id(token)] for token in out.column("Label")]


@pytest.mark.parametrize("colliding", [False, True])
@given(_tables_with_duplicates())
@settings(max_examples=150, deadline=None)
def test_hashed_dedup_keeps_the_reference_rows(colliding, raw):
    with pytest.MonkeyPatch.context() as mp:
        if colliding:  # every row shares one hash, so every row is compared whole
            mp.setattr(prep, "_row_hashes", lambda table: np.zeros(table.n_rows, np.uint64))
        got, got_details = drop_duplicate_rows(raw)
    want, want_details = reference_prep.drop_duplicate_rows(raw)
    assert got_details == want_details
    assert got.schema == want.schema
    assert _kept_rows(raw, got) == _kept_rows(raw, want)


def test_hash_collisions_between_distinct_rows_keep_both():
    raw = RawTable(
        [ColumnSchema("x", KIND_NUMERIC, 0), ColumnSchema("Label", KIND_LABEL, 1)],
        [np.array([1.0, 2.0, 1.0, 3.0]), np.array(["A", "A", "A", "A"], dtype=object)],
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(prep, "_row_hashes", lambda table: np.array([5, 5, 5, 7], np.uint64))
        out, details = drop_duplicate_rows(raw)
    assert out.column("x").tolist() == [1.0, 2.0, 3.0]
    assert details == "removed 1 duplicate rows (first occurrence kept)"


PROFILE = DatasetProfile(name="toy", label_column="Label", class_names=("A", "B"))


@pytest.mark.parametrize("block_rows", [1, 2, 1024])
def test_equal_tokens_share_one_str_per_column(tmp_path, block_rows):
    # "kind" is first found categorical in the first block, "late" only in
    # its last, so its tokens come back from a second pass over the file;
    # every token has two or more characters, which CPython does not cache
    rows = ["Label,kind,late,x"]
    for i in range(9):
        late = "tcp" if i == 8 else f"{i % 3}.5"
        rows.append(f"{('attack', 'benign')[i % 2]},{'udp' if i % 3 else 'tcp'},{late},{i}")
    path = tmp_path / "t.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(prep, "_BLOCK_ROWS", block_rows)
        raw = load_csv(path, PROFILE)
    for name, distinct in (("Label", 2), ("kind", 2), ("late", 4)):
        column = raw.column(name)
        assert len(set(column)) == distinct
        assert len({id(token) for token in column}) == distinct, name


def test_pipeline_peaks_within_three_final_tables(tmp_path):
    spec = SynthSpec.from_profile_name("cse2018", n_rows=20_000, n_features=40, seed=7)
    raw, _ = corrupt(
        generate_flows(spec), dup_rate=0.05, nan_rate=0.01, n_constant_cols=2, seed=8
    )
    path = tmp_path / "synth.csv"
    write_csv(raw, path)
    del raw
    tracemalloc.start()
    try:
        split, _ = preprocess_pipeline(path, spec.profile())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n_rows = split.train.n_rows + split.test.n_rows
    final = n_rows * len(split.train.feature_names) * 8
    assert final > 5_000_000
    assert peak <= 3 * final, (peak, final)
