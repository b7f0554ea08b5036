"""Synthetic flow generation and deliberate corruption."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowgate.dataset import KIND_LABEL
from flowgate.errors import DataError
from flowgate.prep import (
    drop_duplicate_rows,
    drop_invalid_rows,
    drop_zero_variance_columns,
)
from flowgate.profiles import settings_dict
from flowgate.synth import (
    SynthSpec,
    class_quotas,
    corrupt,
    generate_flows,
)


def _spec(**kwargs):
    base = dict(
        n_rows=200,
        class_names=("calm", "burst", "probe"),
        class_ratios=(0.5, 0.3, 0.2),
        n_features=4,
        cluster_separation=6.0,
        seed=0,
    )
    base.update(kwargs)
    return SynthSpec(**base)


# -- apportionment --------------------------------------------------------------


def test_enterprise_mix_quotas_at_ten_thousand():
    spec = SynthSpec.from_profile_name("cse2018", n_rows=10_000)
    quotas = dict(zip(spec.class_names, class_quotas(spec)))
    # largest-remainder targets, then one row reclaimed for the rarest class
    # from the largest-surplus donor
    assert quotas == {
        "Benign": 8307,
        "DDoS": 778,
        "DoS": 403,
        "Brute Force": 235,
        "Botnet": 176,
        "Infiltration": 100,
        "Web attacks": 1,
    }
    assert sum(quotas.values()) == 10_000


def test_quotas_sum_and_floor():
    spec = _spec(n_rows=7, class_ratios=(0.98, 0.01, 0.01))
    quotas = class_quotas(spec)
    assert sum(quotas) == 7
    assert all(q >= 1 for q in quotas)


def test_quotas_error_when_rows_cannot_cover_classes():
    # the spec refuses it, so every spec can be apportioned
    with pytest.raises(DataError, match="increase n_rows"):
        _spec(n_rows=2)


def test_zero_ratio_class_gets_zero_rows():
    spec = _spec(class_ratios=(0.7, 0.3, 0.0))
    quotas = class_quotas(spec)
    assert quotas[2] == 0
    assert sum(quotas) == 200


@given(st.integers(0, 2**32 - 1), st.integers(2, 6))
@settings(max_examples=40, deadline=None)
def test_quotas_within_one_of_target_when_no_flooring(seed, k):
    rng = np.random.default_rng(seed)
    weights = rng.random(k) + 0.05
    ratios = tuple(float(w) for w in weights / weights.sum())
    n = int(rng.integers(20 * k, 2000))
    spec = SynthSpec(
        n_rows=n, class_names=tuple(f"c{i}" for i in range(k)), class_ratios=ratios
    )
    quotas = class_quotas(spec)
    assert sum(quotas) == n
    if all(n * r >= 1 for r in ratios):
        for q, r in zip(quotas, ratios):
            assert abs(q - n * r) <= 1.0 + 1e-9


# -- generation -----------------------------------------------------------------


def test_generation_matches_quotas_and_schema():
    spec = _spec()
    table = generate_flows(spec)
    assert table.n_rows == 200
    assert table.encoding.counts == class_quotas(spec)
    assert table.feature_names == ("f00", "f01", "f02", "f03")
    assert table.schema[-1].kind == KIND_LABEL


def test_generation_is_deterministic():
    a = generate_flows(_spec())
    b = generate_flows(_spec())
    assert np.array_equal(a.feature_matrix(), b.feature_matrix())
    assert np.array_equal(a.labels, b.labels)
    c = generate_flows(_spec(seed=1))
    assert not np.array_equal(a.feature_matrix(), c.feature_matrix())


def test_consecutive_class_centers_sit_separation_apart():
    spec = _spec(n_rows=9000, cluster_separation=40.0)
    table = generate_flows(spec)
    X = table.feature_matrix()
    centers = [X[table.labels == k].mean(axis=0) for k in range(3)]
    for a, b in zip(centers, centers[1:]):
        assert float(np.linalg.norm(b - a)) == pytest.approx(40.0, rel=0.05)


def test_zero_separation_piles_all_classes_together():
    table = generate_flows(_spec(n_rows=3000, cluster_separation=0.0))
    X = table.feature_matrix()
    centers = [X[table.labels == k].mean(axis=0) for k in range(3)]
    assert float(np.linalg.norm(centers[0] - centers[2])) < 0.5


# -- corruption ------------------------------------------------------------------


def test_zero_rate_corrupt_is_a_clean_conversion():
    table = generate_flows(_spec())
    raw, ledger = corrupt(table, 0.0, 0.0, 0.0, 0, seed=1)
    assert raw.n_rows == table.n_rows
    assert ledger.n_duplicate_rows == 0
    assert ledger.n_invalid_rows == 0
    assert ledger.n_constant_columns == 0
    assert raw.column("label").tolist() == [
        table.encoding.class_names[k] for k in table.labels
    ]
    for j, name in enumerate(table.feature_names):
        assert np.array_equal(raw.column(name), table.columns[j])


def test_duplicate_rate_appends_copies():
    table = generate_flows(_spec(n_rows=100))
    raw, ledger = corrupt(table, 0.1, 0.0, 0.0, 0, seed=2)
    assert raw.n_rows == 110
    assert ledger.n_duplicate_rows == 10
    for src, new in ledger.duplicate_rows:
        assert new >= 100
        for name in table.feature_names:
            assert raw.column(name)[new] == raw.column(name)[src]
        assert raw.column("label")[new] == raw.column("label")[src]


def test_invalid_rows_poke_single_feature_cells():
    table = generate_flows(_spec(n_rows=100))
    raw, ledger = corrupt(table, 0.0, 0.05, 0.02, 0, seed=3)
    assert raw.n_rows == 107
    assert len(ledger.nan_cells) == 5
    assert len(ledger.inf_cells) == 2
    for row, column in ledger.nan_cells:
        assert np.isnan(raw.column(column)[row])
    for row, column in ledger.inf_cells:
        assert np.isinf(raw.column(column)[row])


def test_corruption_sources_are_disjoint():
    table = generate_flows(_spec(n_rows=100))
    _, ledger = corrupt(table, 0.2, 0.2, 0.2, 0, seed=4)
    dup_srcs = {src for src, _ in ledger.duplicate_rows}
    nan_rows = {row for row, _ in ledger.nan_cells}
    inf_rows = {row for row, _ in ledger.inf_cells}
    assert len(dup_srcs) == 20
    # appended invalid rows sit past the original block and never overlap
    assert not (nan_rows & inf_rows)


def test_constant_columns_are_appended_zeros():
    table = generate_flows(_spec(n_rows=50))
    raw, ledger = corrupt(table, 0.0, 0.0, 0.0, 2, seed=5)
    assert ledger.constant_columns == ("const_00", "const_01")
    for name in ledger.constant_columns:
        assert np.all(raw.column(name) == 0.0)


def test_cleaning_recovers_the_original_rows_exactly():
    table = generate_flows(_spec(n_rows=150))
    pristine, _ = corrupt(table, 0.0, 0.0, 0.0, 0, seed=7)
    dirty, ledger = corrupt(table, 0.1, 0.06, 0.02, 2, seed=7)
    assert dirty.n_rows == 150 + ledger.n_duplicate_rows + ledger.n_invalid_rows

    step1, _ = drop_invalid_rows(dirty)
    step2, _ = drop_duplicate_rows(step1)
    step3, _ = drop_zero_variance_columns(step2)
    assert step3.n_rows == 150
    assert step3.column_names == pristine.column_names
    for name in table.feature_names:
        assert np.array_equal(step3.column(name), pristine.column(name))
    assert step3.column("label").tolist() == pristine.column("label").tolist()


def test_corrupt_rate_validation():
    table = generate_flows(_spec(n_rows=20))
    with pytest.raises(DataError):
        corrupt(table, -0.1, 0.0, 0.0, 0, seed=0)
    with pytest.raises(DataError):
        corrupt(table, 0.0, 1.0, 0.0, 0, seed=0)
    with pytest.raises(DataError):
        corrupt(table, 0.0, 0.0, 0.0, -1, seed=0)


def test_ledger_round_trip():
    table = generate_flows(_spec(n_rows=60))
    _, ledger = corrupt(table, 0.1, 0.05, 0.0, 1, seed=9)
    # the ledger sidecar is this document as JSON: it holds every hazard
    assert json.loads(json.dumps(settings_dict(ledger))) == {
        "n_original_rows": 60,
        "duplicate_rows": [list(pair) for pair in ledger.duplicate_rows],
        "nan_cells": [list(cell) for cell in ledger.nan_cells],
        "inf_cells": [],
        "constant_columns": ["const_00"],
    }
    assert (ledger.n_duplicate_rows, len(ledger.nan_cells)) == (6, 3)


def test_spec_validation():
    with pytest.raises(DataError):
        _spec(class_ratios=(0.5, 0.3, 0.1))  # sums to 0.9
    with pytest.raises(DataError):
        _spec(n_features=1)
    with pytest.raises(DataError):
        _spec(n_rows=0)
    with pytest.raises(DataError):
        SynthSpec(n_rows=10, class_names=(), class_ratios=())


def test_profile_round_trip_via_spec():
    spec = _spec()
    profile = spec.profile()
    assert profile.label_column == "label"
    assert profile.class_names == spec.class_names
    doc = settings_dict(spec)
    rebuilt = SynthSpec(
        n_rows=doc["n_rows"],
        class_names=tuple(doc["class_names"]),
        class_ratios=tuple(doc["class_ratios"]),
        n_features=doc["n_features"],
        cluster_separation=doc["cluster_separation"],
        seed=doc["seed"],
    )
    assert rebuilt == spec
