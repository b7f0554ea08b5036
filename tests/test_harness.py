"""End-to-end experiment runs and artifact emission."""

import json
import os
from dataclasses import replace

import numpy as np
import pytest

from flowgate.config import CorruptionConfig, ExperimentConfig
from flowgate.errors import ConfigError, DataError
from flowgate.harness import (
    METRIC_COLUMNS,
    TUNED_DT_NAME,
    StageFailure,
    build_source,
    emit_reports,
    fit_model,
    format_real,
    run_and_emit,
    run_experiment,
)
from flowgate.metrics import ConfusionMatrix, evaluate


def _config(**overrides):
    doc = {
        "seed": 11,
        "dataset": {
            "kind": "synthetic",
            "n_rows": 1200,
            "class_names": ["calm", "burst", "probe"],
            "class_ratios": [0.8, 0.15, 0.05],
            "n_features": 5,
            "cluster_separation": 8.0,
        },
        "models": ["baseline", "dt"],
    }
    doc.update(overrides)
    return ExperimentConfig.from_dict(doc)


def test_run_produces_one_row_per_model():
    manifest = run_experiment(_config(models=["baseline", "dt", "rf"]))
    assert [m.name for m in manifest.models] == ["Baseline", "DT", "RF"]
    assert manifest.class_names == ("calm", "burst", "probe")
    assert manifest.prep_report is not None
    assert set(manifest.timings) >= {"dataset", "preprocess", "model:DT"}


def test_separated_clusters_are_nearly_learnable():
    manifest = run_experiment(_config())
    dt = manifest.model_named("DT")
    assert dt.report.accuracy >= 0.99
    baseline = manifest.model_named("Baseline")
    assert baseline.report.accuracy < dt.report.accuracy


def test_metrics_document_is_identical_across_reruns():
    config = _config(models=["baseline", "dt", "gbt"])
    a = run_experiment(config).metrics_document()
    b = run_experiment(config).metrics_document()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_corruption_ledger_matches_prep_report():
    config = _config(
        corruption={"dup_rate": 0.05, "nan_rate": 0.01, "n_constant_cols": 2}
    )
    manifest = run_experiment(config)
    ledger = manifest.ledger
    assert ledger is not None
    by_stage = {e.stage: e for e in manifest.prep_report.entries}
    assert (
        by_stage["drop_invalid_rows"].rows_before
        - by_stage["drop_invalid_rows"].rows_after
        == ledger.n_invalid_rows
    )
    assert (
        by_stage["drop_duplicate_rows"].rows_before
        - by_stage["drop_duplicate_rows"].rows_after
        == ledger.n_duplicate_rows
    )
    assert (
        by_stage["drop_zero_variance_columns"].columns_before
        - by_stage["drop_zero_variance_columns"].columns_after
        == ledger.n_constant_columns
    )


def test_tuning_produces_trace_and_tuned_model():
    config = _config(
        models=["dt"],
        tuning={"enabled": True, "n_particles": 6, "n_iterations": 5},
    )
    manifest = run_experiment(config)
    assert manifest.tuning is not None
    assert len(manifest.tuning.trace) == 5
    fits = [t.fitness for t in manifest.tuning.trace]
    assert fits == sorted(fits)
    assert manifest.tuning.best_fitness >= manifest.tuning.default_fitness
    names = [m.name for m in manifest.models]
    assert names == ["DT", TUNED_DT_NAME]


def _split_of(config):
    """The train/test split a run of ``config`` fits and scores on."""
    from flowgate.prep import PrepOptions, preprocess_pipeline

    source, profile, _ = build_source(config)
    split, _ = preprocess_pipeline(
        source, profile, PrepOptions(split_ratio=config.split_ratio, seed=config.seed + 2)
    )
    return split


def _overlapping_tuned_config(dt_spec):
    # overlapping classes: the swarm's best point here is (4, 30, 10), a
    # depth cut and a leaf size above the configured DT's
    return _config(
        seed=12,
        dataset={
            "kind": "synthetic",
            "n_rows": 1200,
            "class_names": ["calm", "burst", "probe"],
            "class_ratios": [0.6, 0.3, 0.1],
            "n_features": 5,
            "cluster_separation": 1.0,
        },
        models=[dt_spec],
        tuning={"enabled": True, "n_particles": 6, "n_iterations": 5},
    )


@pytest.mark.parametrize("dt_spec", ["dt", {"type": "dt", "ccp_alpha": 0.01}])
def test_tuned_tree_is_the_fresh_fit_of_the_best_point(monkeypatch, dt_spec):
    import flowgate.harness
    from flowgate.models import tree as tree_module
    from flowgate.models.tree import TreeHyperparams, fit_tree

    searches = []
    node_split = tree_module._node_split
    monkeypatch.setattr(
        tree_module, "_node_split", lambda *a: searches.append(True) or node_split(*a)
    )
    harness_fits = []

    def recording_fit(*args, splits=None, **kwargs):
        before = len(searches)
        model = fit_tree(*args, splits=splits, **kwargs)
        harness_fits.append((splits, len(searches) - before))
        return model

    monkeypatch.setattr(flowgate.harness, "fit_tree", recording_fit)
    config = _overlapping_tuned_config(dt_spec)
    manifest = run_experiment(config)
    depth, min_split, min_leaf = manifest.tuning.best_point
    # the configured DT and the tuned one share one split cache
    (dt_splits, _), (tuned_splits, tuned_searches) = harness_fits
    assert dt_splits is not None and tuned_splits is dt_splits

    split = _split_of(config)
    params = TreeHyperparams(
        max_depth=depth, min_samples_split=min_split, min_samples_leaf=min_leaf
    )
    searches.clear()
    fresh = fit_tree(split.train, params).root
    # the tuned fit reuses node searches of the configured DT, pruned or not
    assert tuned_searches < len(searches)
    unbounded = fit_tree(split.train, replace(params, max_depth=None)).root
    assert min_leaf > 1 and depth < unbounded.depth()  # the depth cut matters
    tuned = manifest.model_named(TUNED_DT_NAME).model
    assert tuned.params == params
    for name in ("value", "feature", "threshold", "right", "node_depth"):
        got, want = getattr(tuned.root, name), getattr(fresh, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


def test_manifest_records_the_swarm_counters(tmp_path):
    config = _overlapping_tuned_config("dt")
    manifest, _ = run_and_emit(config, tmp_path)
    counters = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))["swarm"]
    assert set(counters) == {"evaluations", "cache_hits", "failed_points", "trees_grown"}
    # every particle looks up one lattice point per iteration, plus once at init
    assert counters["evaluations"] + counters["cache_hits"] == 6 * (5 + 1)
    assert 0 <= counters["failed_points"] < counters["evaluations"]
    # the default point's leaf-size-1 tree is scored after the swarm
    leaf_sizes = {point[2] for point in _evaluated_points(manifest)} | {1}
    assert counters["trees_grown"] == len(leaf_sizes)
    metrics = json.loads((tmp_path / "metrics.json").read_text(encoding="utf-8"))
    assert "swarm" not in metrics and metrics == manifest.metrics_document()


def _evaluated_points(manifest):
    """The feasible lattice points a rerun of the tuning swarm evaluates."""
    from flowgate.swarm import DT_DEFAULT_POINT, dt_objective, dt_search_space, optimize

    config = manifest.config
    split = _split_of(config)
    objective = dt_objective(
        split, holdout_fraction=config.tuning.holdout_fraction, seed=config.seed + 3
    )
    points = []

    def recording(point):
        value = objective(point)  # an infeasible point raises before any fit
        points.append(point)
        return value

    optimize(
        dt_search_space(),
        config.tuning,
        recording,
        seed=config.seed + 3,
        seed_point=DT_DEFAULT_POINT if config.tuning.seed_default_point else None,
    )
    return points


def test_stage_failure_carries_stage_and_partial_manifest():
    config = _config(
        dataset={
            "kind": "csv",
            "path": "/nonexistent/rows.csv",
            "profile": "cse2018",
        }
    )
    # the csv path is only opened once the cleaning pipeline starts
    with pytest.raises(StageFailure) as info:
        run_experiment(config)
    assert info.value.stage == "preprocess"
    assert isinstance(info.value.cause, DataError)
    assert info.value.manifest.config_hash == config.config_hash()


def test_csv_source_refuses_synthetic_corruption(tmp_path):
    # refused when the config loads, before the dataset stage opens the file
    dataset = {"kind": "csv", "path": str(tmp_path / "rows.csv"), "profile": "cse2018"}
    with pytest.raises(ConfigError, match="only supported for synthetic datasets"):
        _config(dataset=dataset, corruption={"dup_rate": 0.1})
    csv_config = _config(dataset=dataset)
    with pytest.raises(ConfigError, match="only supported for synthetic datasets"):
        replace(csv_config, corruption=CorruptionConfig(dup_rate=0.1))


def test_fit_model_resolves_hyperparameters():
    config = _config()
    source, profile, _ = build_source(config)
    from flowgate.prep import PrepOptions, preprocess_pipeline

    split, _ = preprocess_pipeline(
        source, profile, PrepOptions(split_ratio=0.8, seed=config.seed + 2)
    )
    from flowgate.config import ModelSpec

    model, resolved = fit_model(
        ModelSpec.from_value({"type": "rf", "n_trees": 3}, "models[0]"),
        split.train,
        config.seed,
    )
    assert resolved["n_trees"] == 3
    assert len(model.trees) == 3
    # "criterion" and "seed" were tree hyperparameters that growth never read
    for bad in (
        {"type": "dt", "bogus": 1},
        {"type": "dt", "criterion": "entropy"},
        {"type": "rf", "criterion": "gini"},
        {"type": "dt", "seed": 3},
    ):
        with pytest.raises(ConfigError, match="unknown hyperparameters"):
            fit_model(ModelSpec.from_value(bad, "models[0]"), split.train, config.seed)


def test_forest_reports_the_config_seed():
    manifest = run_experiment(_config(seed=5, models=[{"type": "rf", "n_trees": 2}]))
    hyperparams = manifest.metrics_document()["models"][0]["hyperparams"]
    assert hyperparams["seed"] == 5
    assert manifest.model_named("RF").model.seed == 5


def test_metrics_json_pins_each_model_types_hyperparams(tmp_path):
    # values are written as the config gives them (0 and 1 stay integers);
    # rf adds its resolved features_per_split (ceil(sqrt(5))) and the seed
    config = _config(
        models=[
            "baseline",
            {"type": "dt", "max_depth": 4},
            {"type": "rf", "n_trees": 2, "ccp_alpha": 0},
            {"type": "gbt", "n_rounds": 2, "learning_rate": 1},
        ]
    )
    run_and_emit(config, tmp_path)
    doc = json.loads((tmp_path / "metrics.json").read_text(encoding="utf-8"))
    written = {
        m["model_type"]: json.dumps(m["hyperparams"], sort_keys=True) for m in doc["models"]
    }
    assert written == {
        "baseline": '{"majority_class": 0}',
        "dt": '{"ccp_alpha": 0.0, "max_depth": 4, "min_samples_leaf": 1, '
        '"min_samples_split": 2}',
        "rf": '{"bootstrap": true, "ccp_alpha": 0, "features_per_split": 3, '
        '"max_depth": null, "min_samples_leaf": 1, "min_samples_split": 2, '
        '"n_trees": 2, "seed": 11}',
        "gbt": '{"l2_lambda": 1.0, "learning_rate": 1, "max_depth": 3, "n_rounds": 2}',
    }


# -- formatting and artifacts ---------------------------------------------------


def test_format_real_nine_decimals():
    assert format_real(0.5) == "0.500000000"
    assert format_real(1.0) == "1.000000000"
    assert format_real(0.8875171777) == "0.887517178"


def test_majority_row_closed_forms_at_published_imbalance():
    # benign share 0.8875171777: every prediction lands on the majority class
    m = ConfusionMatrix(
        np.array([[8_875_171_777, 0], [1_124_828_223, 0]], dtype=np.int64),
        class_names=("majority", "rest"),
    )
    report = evaluate(m, mode="weighted")
    rendered = [format_real(v) for v in report.as_row()]
    assert rendered == [
        "0.887517178",
        "0.787686741",
        "0.887517178",
        "0.834627361",
    ]


def test_emitted_tables_and_series(tmp_path):
    config = _config(models=["baseline", "dt", "rf"])
    manifest, paths = run_and_emit(config, tmp_path)
    names = {p.name for p in paths}
    assert {
        "table_metrics.csv",
        "table_metrics.md",
        "table_metrics.json",
        "table_average.csv",
        "figure_bar_series.csv",
        "figure_radar_series.csv",
        "metrics.json",
        "manifest.json",
    } <= names

    text = (tmp_path / "table_metrics.csv").read_bytes().decode("utf-8")
    lines = text.split("\r\n")
    assert lines[0] == "Classifier,Accuracy,Precision,Recall,F1-Score"
    assert len([l for l in lines if l]) == 4  # header + 3 classifiers
    first = lines[1].split(",")
    assert first[0] == "Baseline"
    for cell in first[1:]:
        assert len(cell.split(".")[1]) == 9

    radar = (tmp_path / "figure_radar_series.csv").read_bytes().decode("utf-8")
    assert radar.split("\r\n")[0] == (
        "Classifier,Accuracy,Precision,Recall,F1-Score,Average"
    )

    bar = (tmp_path / "figure_bar_series.csv").read_bytes().decode("utf-8")
    bar_lines = [l for l in bar.split("\r\n") if l]
    assert bar_lines[0] == "classifier,metric,value"
    assert len(bar_lines) == 1 + 3 * len(METRIC_COLUMNS)


def test_average_column_is_the_mean_of_the_four():
    config = _config(models=["baseline"])
    manifest = run_experiment(config)
    report = manifest.model_named("Baseline").report
    from flowgate.harness import _table_rows

    rows = _table_rows(manifest, True)
    assert rows[0][-1] == "Average"
    assert rows[1][-1] == format_real(report.average_of_four)


def test_tuning_trace_artifact(tmp_path):
    config = _config(
        models=[],
        tuning={"enabled": True, "n_particles": 5, "n_iterations": 4},
    )
    _, paths = run_and_emit(config, tmp_path)
    trace_path = tmp_path / "figure_tuning_trace.csv"
    assert trace_path in paths
    lines = [l for l in trace_path.read_bytes().decode("utf-8").split("\r\n") if l]
    assert lines[0] == (
        "iteration,best_fitness,max_depth,min_samples_split,min_samples_leaf"
    )
    assert len(lines) == 5
    assert lines[1].split(",")[0] == "1"


def test_metrics_json_excludes_timings(tmp_path):
    config = _config()
    run_and_emit(config, tmp_path)
    doc = json.loads((tmp_path / "metrics.json").read_text(encoding="utf-8"))
    assert "timings_seconds" not in doc
    assert doc["config_hash"] == config.config_hash()
    # per-class rows carry the configured class names, not indices
    per_class = doc["models"][0]["per_class"]
    assert [e["class"] for e in per_class] == ["calm", "burst", "probe"]
    manifest_doc = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
    assert "timings_seconds" in manifest_doc
    assert manifest_doc["metrics"]["config_hash"] == config.config_hash()


def test_manifest_records_the_peak_rss_after_each_stage(tmp_path, monkeypatch):
    # two workers, so the forest's trees grow partly in a forked child
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setenv("FLOWGATE_THREADS", "2")
    manifest, _ = run_and_emit(_config(models=["baseline", "dt", "rf"]), tmp_path)
    # one entry per timed stage, in stage order; a high-water mark never falls
    for recorded in (manifest.peak_rss_mb, manifest.children_peak_rss_mb):
        assert list(recorded) == list(manifest.timings)
        peaks = list(recorded.values())
        assert peaks == sorted(peaks)
    assert manifest.peak_rss_mb["dataset"] > 0
    assert manifest.children_peak_rss_mb["model:RF"] > 0
    doc = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
    assert set(doc["peak_rss_mb"]) == set(doc["timings_seconds"])
    assert set(doc["children_peak_rss_mb"]) == set(doc["timings_seconds"])
    metrics = json.loads((tmp_path / "metrics.json").read_text(encoding="utf-8"))
    assert "peak_rss_mb" not in metrics
    assert "children_peak_rss_mb" not in metrics


def test_formats_filter_table_outputs(tmp_path):
    config = _config(formats=["csv"])
    _, paths = run_and_emit(config, tmp_path)
    names = {p.name for p in paths}
    assert "table_metrics.csv" in names
    assert "table_metrics.md" not in names
    assert "metrics.json" in names  # the canonical documents always appear


def test_markdown_table_shape(tmp_path):
    config = _config(models=["dt"], formats=["md"])
    run_and_emit(config, tmp_path)
    lines = (tmp_path / "table_metrics.md").read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("| Classifier |")
    assert set(lines[1].replace("|", "").strip()) <= {"-", " ", ":"}
    assert lines[2].startswith("| DT |")
