"""Release gates for the whole pipeline.

Each test here checks one shippability gate end to end and prints exactly one
PASS/FAIL line with the measured numbers, so a captured log shows the whole
battery at a glance. Gates with a wall-clock budget enforce it with
time.perf_counter, not trust.

The two external-dataset gates only run when the corresponding environment
variable points at a local copy of the full CSV; they are hour-scale and are
never part of CI.
"""

from __future__ import annotations

import hashlib
import os
import time

import numpy as np
import pytest

from flowgate.config import ExperimentConfig
from flowgate.harness import TUNED_DT_NAME, build_source, run_and_emit, run_experiment
from flowgate.metrics import confusion_matrix, evaluate
from flowgate.models.baseline import majority_baseline
from flowgate.models.tree import TreeHyperparams, best_split, fit_tree, predict_tree
from flowgate.prep import PrepOptions, preprocess_pipeline
from flowgate.swarm import EpsoConfig, SearchSpace, optimize

from conftest import (
    conflict_free_table,
    make_table,
    oracle_best_split,
    oracle_metrics,
)

CSE_ENV = "FLOWGATE_CSE2018_CSV"
LITNET_ENV = "FLOWGATE_LITNET2020_CSV"

# weighted (accuracy, precision, recall, f1) of an always-majority classifier
# at a 0.887517178 benign share; closed forms (r, r^2, r, 2r^2/(1+r))
MAJORITY_ROW = (0.887517178, 0.787686741, 0.887517178, 0.834627361)


def _verdict(gate: str, ok: bool, detail: str) -> None:
    print(f"{gate}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"{gate}: {detail}"


def test_gate_majority_baseline_reproduces_imbalanced_row():
    start = time.perf_counter()
    # 887,517 of 1,000,000 benign puts the share within 1.8e-7 of the target
    n, n_benign = 1_000_000, 887_517
    y_true = np.zeros(n, dtype=np.int64)
    y_true[n_benign:] = 1
    train = make_table(
        np.arange(10, dtype=np.float64).reshape(10, 1),
        np.array([0] * 8 + [1] * 2),
        ("benign", "attack"),
    )
    model = majority_baseline(train)
    report = evaluate(confusion_matrix(y_true, model.predict(np.zeros((n, 1))), 2), mode="weighted")
    worst = max(abs(g - e) for g, e in zip(report.as_row(), MAJORITY_ROW))
    elapsed = time.perf_counter() - start
    _verdict(
        "gate 1 (imbalanced majority baseline)",
        worst < 1e-6 and elapsed < 1.0,
        f"max metric delta {worst:.2e} (limit 1e-06), {elapsed:.2f}s (limit 1s)",
    )


def test_gate_weighted_metrics_match_counting_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    for _ in range(1000):
        k = int(rng.integers(2, 14))
        n = int(rng.integers(1, 301))
        y_true = rng.integers(0, k, size=n)
        y_pred = rng.integers(0, k, size=n)
        report = evaluate(confusion_matrix(y_true, y_pred, k), mode="weighted")
        want = oracle_metrics(y_true, y_pred, k, mode="weighted")
        assert report.accuracy == want["accuracy"]
        assert report.precision == want["precision"]
        assert report.recall == want["recall"]
        assert report.f1 == want["f1"]
        assert report.recall == report.accuracy
    elapsed = time.perf_counter() - start
    _verdict(
        "gate 2 (metric counting oracle)",
        elapsed < 5.0,
        f"1000/1000 cases exact, weighted recall == accuracy, "
        f"{elapsed:.2f}s (limit 5s)",
    )


def test_gate_split_search_matches_exhaustive_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    n_splits = 0
    for case in range(200):
        n = int(rng.integers(2, 65))
        d = int(rng.integers(1, 5))
        k = int(rng.integers(2, 5))
        if case % 2:
            # a coarse integer grid forces repeated values and score ties
            X = rng.integers(0, 5, size=(n, d)).astype(np.float64)
        else:
            X = rng.normal(size=(n, d))
        y = rng.integers(0, k, size=n)
        y[: min(k, n)] = np.arange(min(k, n))
        msl = int(rng.integers(1, 4))
        params = TreeHyperparams(min_samples_leaf=msl, min_samples_split=2 * msl)
        got = best_split(np.arange(n), make_table(X, y), params)
        want = oracle_best_split(X, y, min_samples_leaf=msl)
        if want is None:
            assert got is None, f"case {case}: oracle found nothing, impl split"
        else:
            assert got is not None, f"case {case}: impl found nothing, oracle split"
            assert got[0] == want[0], f"case {case}: feature {got[0]} != {want[0]}"
            assert got[1] == want[1], f"case {case}: threshold {got[1]} != {want[1]}"
            assert got[2] == pytest.approx(want[2], rel=1e-12)
            n_splits += 1
    elapsed = time.perf_counter() - start
    _verdict(
        "gate 3 (exhaustive split search)",
        elapsed < 10.0,
        f"200/200 cases exact ({n_splits} with a winning split), "
        f"{elapsed:.2f}s (limit 10s)",
    )


def test_gate_tree_memorizes_and_respects_limits():
    start = time.perf_counter()
    rng = np.random.default_rng(2026)
    limits = TreeHyperparams(max_depth=6, min_samples_split=8, min_samples_leaf=4)
    for case in range(100):
        n = int(rng.integers(10, 501))
        d = int(rng.integers(1, 6))
        k = int(rng.integers(2, 7))
        table = conflict_free_table(n, d, k, seed=10_000 + case)
        model = fit_tree(table)
        assert (predict_tree(model, table) == table.labels).all(), (
            f"case {case}: default tree failed to memorize {n} distinct rows"
        )
        # a second, constrained fit makes the structural clause non-vacuous
        bounded = fit_tree(table, limits)
        assert bounded.root.depth() <= limits.max_depth
        X = table.feature_matrix()
        tree = bounded.root
        stack = [(0, np.arange(n))]
        while stack:
            node, rows = stack.pop()
            if tree.feature[node] < 0:
                assert rows.size >= limits.min_samples_leaf
                continue
            mask = X[rows, tree.feature[node]] <= tree.threshold[node]
            stack.append((node + 1, rows[mask]))
            stack.append((tree.right[node], rows[~mask]))
    elapsed = time.perf_counter() - start
    _verdict(
        "gate 4 (tree memorization + structure)",
        elapsed < 30.0,
        f"100/100 datasets at train accuracy 1.0, bounded refits respect "
        f"depth/leaf limits, {elapsed:.2f}s (limit 30s)",
    )


def test_gate_swarm_recovers_integer_optimum():
    start = time.perf_counter()
    space = SearchSpace(names=("x", "y", "z"), lowers=(-10,) * 3, uppers=(10,) * 3)

    def neg_sphere(point):
        return -float(point[0] ** 2 + point[1] ** 2 + point[2] ** 2)

    hits = 0
    monotone = 0
    fixed_seed_hit = False
    for seed in range(10):
        config = EpsoConfig(n_particles=20, n_iterations=50)
        best, fitness, trace = optimize(space, config, neg_sphere, seed=seed)
        fits = [t.fitness for t in trace]
        monotone += fits == sorted(fits)
        if best == (0, 0, 0) and fitness == 0.0:
            hits += 1
            if seed == 0:
                fixed_seed_hit = True
    elapsed = time.perf_counter() - start
    _verdict(
        "gate 5 (swarm on integer sphere)",
        fixed_seed_hit and hits >= 9 and monotone == 10 and elapsed < 5.0,
        f"seed 0 hit (0,0,0); battery {hits}/10 optimal (need >= 9), "
        f"{monotone}/10 monotone (need 10), {elapsed:.2f}s (limit 5s)",
    )


# -- full-pipeline gates (one shared heavy run) ---------------------------------


def _pipeline_config(cluster_separation: float = 8.0) -> ExperimentConfig:
    # the smallest class lands 2 training rows at this scale, so the tuning
    # holdout must take half of them or the objective's inner split starves
    return ExperimentConfig.from_dict(
        {
            "seed": 2026,
            "dataset": {
                "kind": "synthetic",
                "n_rows": 50_000,
                "profile": "cse2018",
                "n_features": 6,
                "cluster_separation": cluster_separation,
            },
            "corruption": {"dup_rate": 0.05, "nan_rate": 0.01, "n_constant_cols": 2},
            "models": ["dt"],
            "tuning": {"enabled": True, "holdout_fraction": 0.5},
        }
    )


@pytest.fixture(scope="module")
def corrupted_run(tmp_path_factory):
    """One full run of the corrupted-synthetic config, shared by gates 6/7."""
    out = tmp_path_factory.mktemp("gate_run_baseline")
    had = os.environ.pop("FLOWGATE_THREADS", None)
    try:
        start = time.perf_counter()
        manifest, _ = run_and_emit(_pipeline_config(), out)
        elapsed = time.perf_counter() - start
    finally:
        if had is not None:
            os.environ["FLOWGATE_THREADS"] = had
    return manifest, out, elapsed


def test_gate_pipeline_on_corrupted_synthetic(corrupted_run):
    manifest, _, elapsed = corrupted_run
    ledger = manifest.ledger
    by_stage = {e.stage: e for e in manifest.prep_report.entries}

    def removed_rows(stage):
        return by_stage[stage].rows_before - by_stage[stage].rows_after

    ledger_ok = (
        removed_rows("drop_invalid_rows") == ledger.n_invalid_rows
        and removed_rows("drop_duplicate_rows") == ledger.n_duplicate_rows
        and by_stage["drop_zero_variance_columns"].columns_before
        - by_stage["drop_zero_variance_columns"].columns_after
        == ledger.n_constant_columns
    )

    # replay the prep stages to inspect the per-class split balance
    config = manifest.config
    source, profile, _ = build_source(config)
    options = PrepOptions(
        split_ratio=config.split_ratio,
        seed=config.seed + 2,
        fit_scope=config.fit_scope,
    )
    split, _ = preprocess_pipeline(source, profile, options)
    k = split.train.n_classes
    train_counts = np.bincount(split.train.labels, minlength=k)
    test_counts = np.bincount(split.test.labels, minlength=k)
    worst_row = max(
        abs(tr - config.split_ratio * (tr + te))
        for tr, te in zip(train_counts.tolist(), test_counts.tolist())
    )

    dt_acc = manifest.model_named("DT").report.accuracy
    fitness_gain = manifest.tuning.best_fitness - manifest.tuning.default_fitness
    _verdict(
        "gate 6 (corrupted synthetic pipeline)",
        ledger_ok
        and worst_row <= 1.0
        and dt_acc >= 0.99
        and fitness_gain >= 0.0
        and elapsed < 300.0,
        f"ledger == prep report: {ledger_ok}; split off by <= {worst_row:.2f} "
        f"rows/class (limit 1); DT accuracy {dt_acc:.6f} (floor 0.99); tuned "
        f"fitness gain {fitness_gain:+.2e} (floor 0); {elapsed:.1f}s (limit 300s)",
    )


def test_gate_reports_survive_reruns_and_thread_caps(corrupted_run, tmp_path_factory):
    _, first_out, _ = corrupted_run
    config = _pipeline_config()
    sections = [
        "metrics.json",
        "table_metrics.csv",
        "table_metrics.md",
        "table_metrics.json",
        "table_average.csv",
        "table_average.md",
        "table_average.json",
        "figure_bar_series.csv",
        "figure_radar_series.csv",
        "figure_tuning_trace.csv",
    ]
    outs = [first_out]
    for cap in ("1", "8"):
        out = tmp_path_factory.mktemp(f"gate_run_threads_{cap}")
        had = os.environ.get("FLOWGATE_THREADS")
        os.environ["FLOWGATE_THREADS"] = cap
        try:
            run_and_emit(config, out)
        finally:
            if had is None:
                del os.environ["FLOWGATE_THREADS"]
            else:
                os.environ["FLOWGATE_THREADS"] = had
        outs.append(out)
    mismatched = [
        name
        for name in sections
        if len({(out / name).read_bytes() for out in outs}) != 1
    ]
    _verdict(
        "gate 7 (rerun + thread-cap determinism)",
        not mismatched,
        f"{len(sections)} report sections byte-identical across a rerun and "
        f"FLOWGATE_THREADS in {{1, 8}}"
        + (f"; mismatched: {mismatched}" if mismatched else ""),
    )


# sha256 of the overlap config's report files: a change to any of them is an
# output change, to be named as one
OVERLAP_DIGESTS = {
    "metrics.json": "ea6ca54f37471ce4ad2fc43c9543420217fd89381fe11609516a3ea12acb5808",
    "table_metrics.csv": "66c4f713f3ef492d38dee4bfe9e6078cb5ceffe4f7869a7401bc347488da3c58",
    "figure_tuning_trace.csv": "9a183d515047b4c8323e94054a11c36e10a6de56191d03717ace75250c4e1c46",
}


def test_overlap_report_matches_its_pinned_digests(tmp_path, monkeypatch):
    # the gate-6 config with overlapping classes: its best point (9, 29, 21)
    # is not the default point, so the EPSO DT refit takes only part of its
    # splits from the split cache it shares with the configured DT; at two
    # workers the swarm grows each round's new trees in a forked worker too,
    # on any machine
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    for threads in ("1", "2"):
        monkeypatch.setenv("FLOWGATE_THREADS", threads)
        out = tmp_path / threads
        manifest, _ = run_and_emit(_pipeline_config(cluster_separation=1.5), out)
        changed = [
            name
            for name, digest in OVERLAP_DIGESTS.items()
            if hashlib.sha256((out / name).read_bytes()).hexdigest() != digest
        ]
        best = manifest.tuning.best_point
        _verdict(
            f"overlap report pin at FLOWGATE_THREADS={threads}",
            not changed and tuple(best) == (9, 29, 21),
            f"best point {tuple(best)} (pinned (9, 29, 21)); "
            f"{len(OVERLAP_DIGESTS) - len(changed)} of {len(OVERLAP_DIGESTS)} files match "
            "their pinned sha256" + (f"; changed: {changed}" if changed else ""),
        )


# -- external datasets (opt-in, hour-scale, never CI) ----------------------------


def _external_config(path: str, profile: str) -> ExperimentConfig:
    return ExperimentConfig.from_dict(
        {
            "seed": 2026,
            "dataset": {"kind": "csv", "path": path, "profile": profile},
            "models": ["dt"],
            "tuning": {"enabled": True},
        }
    )


@pytest.mark.skipif(
    CSE_ENV not in os.environ,
    reason=f"set {CSE_ENV} to a local copy of the full CSV to enable",
)
def test_gate_external_cse2018_full_run():
    manifest = run_experiment(_external_config(os.environ[CSE_ENV], "cse2018"))
    by_stage = {e.stage: e for e in manifest.prep_report.entries}
    dedup_rows = by_stage["drop_duplicate_rows"].rows_after
    n_features = by_stage["drop_zero_variance_columns"].columns_after - 1
    dt_acc = manifest.model_named("DT").report.accuracy
    tuned_acc = manifest.model_named(TUNED_DT_NAME).report.accuracy
    _verdict(
        "gate 8a (external cse2018)",
        dedup_rows == 12_017_831
        and n_features == 69
        and abs(dt_acc - 0.996709474) <= 0.003
        and tuned_acc >= dt_acc
        and abs(tuned_acc - 0.997229118) <= 0.003,
        f"dedup {dedup_rows} rows (want 12,017,831), {n_features} features "
        f"(want 69), DT {dt_acc:.9f} (want 0.996709474 +- 0.003), tuned "
        f"{tuned_acc:.9f} (want 0.997229118 +- 0.003, >= DT)",
    )


@pytest.mark.skipif(
    LITNET_ENV not in os.environ,
    reason=f"set {LITNET_ENV} to a local copy of the full CSV to enable",
)
def test_gate_external_litnet2020_full_run():
    manifest = run_experiment(_external_config(os.environ[LITNET_ENV], "litnet2020"))
    by_stage = {e.stage: e for e in manifest.prep_report.entries}
    dedup_rows = by_stage["drop_duplicate_rows"].rows_after
    n_features = by_stage["drop_zero_variance_columns"].columns_after - 1
    _verdict(
        "gate 8b (external litnet2020)",
        dedup_rows == 35_196_472 and n_features == 42,
        f"dedup {dedup_rows} rows (want 35,196,472), {n_features} features "
        f"(want 42); accuracy targets are bound by the cse2018 gate",
    )
