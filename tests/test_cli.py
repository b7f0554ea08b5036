"""Command-line surface: exit codes, artifacts, end-to-end round trips."""

import json
import os
import re
from pathlib import Path

import pytest

from flowgate.cli import main

DATA = Path(__file__).parent / "data"


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _write_config(tmp_path, **overrides):
    doc = {
        "seed": 3,
        "dataset": {
            "kind": "synthetic",
            "n_rows": 600,
            "class_names": ["calm", "burst", "probe"],
            "class_ratios": [0.7, 0.2, 0.1],
            "n_features": 4,
            "cluster_separation": 7.0,
        },
        "models": ["baseline", "dt"],
        "output_dir": str(tmp_path / "out"),
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_report_writes_artifacts_and_exits_zero(tmp_path, capsys):
    config = _write_config(tmp_path)
    code, out, err = _run(capsys, "report", "--config", str(config))
    assert code == 0, err
    assert (tmp_path / "out" / "table_metrics.csv").exists()
    assert (tmp_path / "out" / "metrics.json").exists()
    assert "Baseline:" in out
    assert "DT:" in out


def test_unknown_subcommand_is_a_usage_error(capsys):
    code, _, err = _run(capsys, "transmogrify")
    assert code == 1
    assert "usage error" in err


def test_missing_config_file_is_a_usage_error(tmp_path, capsys):
    code, _, err = _run(capsys, "report", "--config", str(tmp_path / "ghost.json"))
    assert code == 1
    assert "configuration error" in err


def test_invalid_config_key_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": 1, "mystery": True}), encoding="utf-8")
    code, _, err = _run(capsys, "report", "--config", str(path))
    assert code == 1


def test_missing_csv_is_a_data_error(tmp_path, capsys):
    code, _, err = _run(
        capsys,
        "ingest",
        "--csv",
        str(tmp_path / "absent.csv"),
        "--profile",
        "cse2018",
    )
    assert code == 2
    assert "missing file" in err


def test_malformed_thread_cap_is_a_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FLOWGATE_THREADS", "many")
    config = _write_config(tmp_path)
    code, _, err = _run(capsys, "report", "--config", str(config))
    assert code == 1
    assert "FLOWGATE_THREADS" in err
    monkeypatch.setenv("FLOWGATE_THREADS", "0")
    code, _, _ = _run(capsys, "report", "--config", str(config))
    assert code == 1


def test_seed_and_out_overrides(tmp_path, capsys):
    config = _write_config(tmp_path)
    other = tmp_path / "elsewhere"
    code, _, _ = _run(
        capsys, "report", "--config", str(config), "--seed", "9", "--out", str(other)
    )
    assert code == 0
    manifest = json.loads((other / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["config"]["seed"] == 9


def test_synth_then_ingest_round_trip(tmp_path, capsys):
    out_csv = tmp_path / "flows.csv"
    code, out, _ = _run(
        capsys,
        "synth",
        "--rows",
        "500",
        "--profile",
        "cse2018",
        "--seed",
        "4",
        "--dup-rate",
        "0.04",
        "--nan-rate",
        "0.01",
        "--constant-cols",
        "1",
        "--out",
        str(out_csv),
    )
    assert code == 0
    assert out_csv.exists()
    sidecar = json.loads((tmp_path / "flows.csv.spec.json").read_text(encoding="utf-8"))
    assert sidecar["corruption"]["constant_columns"] == ["const_00"]
    n_dups = len(sidecar["corruption"]["duplicate_rows"])
    n_invalid = len(sidecar["corruption"]["nan_cells"]) + len(
        sidecar["corruption"]["inf_cells"]
    )
    assert n_dups == 20  # floor(0.04 * 500)
    assert n_invalid == 5  # floor(0.01 * 500)

    code, out, _ = _run(
        capsys,
        "ingest",
        "--csv",
        str(out_csv),
        "--profile",
        str(tmp_path / "flows.csv.profile.json"),
        "--split-ratio",
        "0.8",
        "--seed",
        "4",
    )
    assert code == 0
    assert "drop_invalid_rows" in out
    assert "removed 5 rows" in out
    assert "removed 20 duplicate rows" in out


def test_stats_reports_columns_and_classes(tmp_path, capsys):
    csv_path = tmp_path / "mini.csv"
    csv_path.write_text("f,Label\n1,Benign\n2,DDoS\n3,Benign\n", encoding="utf-8")
    code, out, _ = _run(
        capsys, "stats", "--csv", str(csv_path), "--profile", "cse2018"
    )
    assert code == 0
    assert "rows: 3" in out
    assert "class distribution:" in out
    assert "Benign: 2" in out


def test_train_saves_models_and_eval_scores_them(tmp_path, capsys):
    config = _write_config(tmp_path, models=["dt"])
    code, out, _ = _run(
        capsys, "train", "--config", str(config), "--save-models"
    )
    assert code == 0
    model_path = tmp_path / "out" / "model_dt.json"
    assert model_path.exists()

    # score the model on a tiny probe sharing the training class vocabulary
    probe = tmp_path / "probe.csv"
    lines = ["f00,f01,f02,f03,label"]
    lines += ["0.1,0.1,0.1,0.1,calm", "0.9,0.9,0.9,0.9,probe"]
    probe.write_text("\n".join(lines) + "\n", encoding="utf-8")
    profile_doc = {
        "name": "probe",
        "label_column": "label",
        "class_names": ["calm", "burst", "probe"],
    }
    profile_path = tmp_path / "probe.profile.json"
    profile_path.write_text(json.dumps(profile_doc), encoding="utf-8")
    code, out, _ = _run(
        capsys,
        "eval",
        "--model",
        str(model_path),
        "--csv",
        str(probe),
        "--profile",
        str(profile_path),
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) >= {"accuracy", "precision", "recall", "f1", "per_class"}
    assert [e["class"] for e in doc["per_class"]] == ["calm", "burst", "probe"]


def test_train_fits_each_model_once_and_saves_the_evaluated_ones(
    tmp_path, capsys, monkeypatch
):
    import flowgate.harness as harness
    from flowgate.models import load_model, model_to_dict

    fitted = {}

    def counting(name):
        fit = getattr(harness, name)

        def wrapper(*args, **kwargs):
            model = fit(*args, **kwargs)
            fitted.setdefault(name, []).append(model)
            return model

        return wrapper

    for name in ("majority_baseline", "fit_tree", "fit_forest", "fit_gbt"):
        monkeypatch.setattr(harness, name, counting(name))
    config = _write_config(
        tmp_path,
        models=["baseline", "dt", {"type": "rf", "n_trees": 2}, {"type": "gbt", "n_rounds": 1}],
    )
    code, out, err = _run(capsys, "train", "--config", str(config), "--save-models")
    assert code == 0, err
    assert {name: len(models) for name, models in fitted.items()} == {
        "majority_baseline": 1, "fit_tree": 1, "fit_forest": 1, "fit_gbt": 1,
    }
    for kind, name in (
        ("baseline", "majority_baseline"), ("dt", "fit_tree"),
        ("rf", "fit_forest"), ("gbt", "fit_gbt"),
    ):
        path = tmp_path / "out" / f"model_{kind}.json"
        assert f"wrote {path}" in out
        assert model_to_dict(load_model(path)) == model_to_dict(fitted[name][0])


def test_train_records_the_tuning_block_as_written(tmp_path, capsys):
    from flowgate.config import ExperimentConfig

    tuning = {"enabled": True, "n_particles": 5, "holdout_fraction": 0.4}
    config = _write_config(tmp_path, tuning=tuning)
    code, _, err = _run(capsys, "train", "--config", str(config))
    assert code == 0, err
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
    recorded = manifest["config"]["tuning"]
    assert recorded["enabled"] is False
    assert (recorded["n_particles"], recorded["holdout_fraction"]) == (5, 0.4)
    doc = json.loads(config.read_text(encoding="utf-8"))
    doc["tuning"]["enabled"] = False
    expected = ExperimentConfig.from_dict(doc).config_hash()
    assert manifest["metrics"]["config_hash"] == expected


@pytest.mark.parametrize(
    "setting",
    [
        {"velocity_fraction": 0},
        {"n_particles": "20"},
        {"inertia_start": "0.9"},
        {"inertia_decay": "no"},
    ],
)
def test_bad_tuning_setting_fails_at_config_load(tmp_path, capsys, monkeypatch, setting):
    import flowgate.harness as harness

    def no_dataset(config):
        raise AssertionError("the dataset stage ran")

    monkeypatch.setattr(harness, "build_source", no_dataset)
    config = _write_config(tmp_path, tuning={"enabled": True, **setting})
    code, _, err = _run(capsys, "report", "--config", str(config))
    assert code == 1
    assert "configuration error" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "spec",
    [
        {"type": "rf", "bootstrap": "no"},
        {"type": "dt", "max_depth": "3"},
        {"type": "gbt", "n_rounds": 1.5},
        {"type": "rf", "features_per_split": True},
        {"type": "dt", "max_depht": 3},
    ],
)
def test_bad_model_spec_fails_at_config_load(tmp_path, capsys, monkeypatch, spec):
    import flowgate.harness as harness

    def no_dataset(config):
        raise AssertionError("the dataset stage ran")

    monkeypatch.setattr(harness, "build_source", no_dataset)
    config = _write_config(tmp_path, models=["baseline", spec])
    code, _, err = _run(capsys, "train", "--config", str(config), "--save-models")
    assert code == 1
    assert "configuration error" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"dataset": {"kind": "synthetic", "n_rows": 100, "class_names": "ab",
                      "class_ratios": [0.5, 0.5]}}, "dataset.class_names"),
        ({"dataset": {"kind": "synthetic", "n_rows": 100, "class_names": ["a", "b"],
                      "class_ratios": "55"}}, "dataset.class_ratios"),
        ({"formats": "md"}, "formats"),
        ({"models": "dt"}, "models"),
    ],
)
def test_bare_string_for_a_list_fails_at_config_load(tmp_path, capsys, overrides, key):
    config = _write_config(tmp_path, **overrides)
    code, _, err = _run(capsys, "report", "--config", str(config))
    assert code == 1
    assert "configuration error" in err and f"{key} must be a list" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "dataset, corruption",
    [
        ({"n_featurs": 9}, {}),
        ({"path": "rows.csv"}, {}),
        ({"profile": "cse2018"}, {}),
        ({"n_features": 1}, {}),
        ({"class_ratios": [0.7, 0.3, 0.1]}, {}),
        ({"cluster_separation": -1}, {}),
        ({"kind": "synthetic", "n_rows": 100, "profile": "cse2019"}, {}),
        ({"kind": "csv", "path": "rows.csv", "profile": "cse2018", "n_rows": 100}, {}),
        ({"kind": "csv", "path": "rows.csv", "profile": "cse2018"}, {"dup_rate": 0.05}),
        ({"kind": "synthetic", "n_rows": 5, "profile": "cse2018"}, {}),
        ({"n_rows": 200}, {"dup_rate": 0.6, "nan_rate": 0.6}),
        ({"class_names": ["calm", "calm", "probe"]}, {}),
    ],
    ids=[
        "misspelt-key", "path-on-synthetic", "profile-and-classes", "one-feature",
        "ratio-sum", "negative-separation", "unknown-profile", "rows-on-csv",
        "corruption-on-csv", "rows-below-classes", "corruption-above-rows",
        "repeated-class-name",
    ],
)
def test_bad_dataset_fails_at_config_load(tmp_path, capsys, monkeypatch, dataset, corruption):
    import flowgate.harness as harness

    def no_dataset(config):
        raise AssertionError("the dataset stage ran")

    monkeypatch.setattr(harness, "build_source", no_dataset)
    block = json.loads(_write_config(tmp_path).read_text(encoding="utf-8"))["dataset"]
    block = dataset if "kind" in dataset else {**block, **dataset}
    config = _write_config(tmp_path, dataset=block, corruption=corruption)
    code, _, err = _run(capsys, "train", "--config", str(config))
    assert code == 1, err
    assert "configuration error" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["ingest", "--split-ratio", "1.5"],
        ["synth", "--rows", "0"],
        ["synth", "--features", "1"],
        ["synth", "--separation", "-1"],
        ["synth", "--dup-rate", "1.5"],
    ],
    ids=["split-ratio", "rows", "features", "separation", "dup-rate"],
)
def test_out_of_range_flag_value_is_a_usage_error(tmp_path, capsys, argv):
    command, *flags = argv
    csv_path = tmp_path / "flows.csv"
    if command == "ingest":
        argv = [command, "--csv", str(csv_path), "--profile", "cse2018", *flags]
    else:
        argv = [command, "--profile", "cse2018", "--out", str(csv_path), *flags]
        if "--rows" not in flags:
            argv += ["--rows", "200"]
    code, out, err = _run(capsys, *argv)
    assert code == 1, err
    assert "usage error" in err
    assert out == ""
    assert not csv_path.exists()


def test_profile_document_that_is_not_an_object_is_a_usage_error(tmp_path, capsys):
    csv_path = tmp_path / "mini.csv"
    csv_path.write_text("a,Label\n1,A\n2,B\n", encoding="utf-8")
    profile = tmp_path / "p.json"
    profile.write_text("[1, 2]", encoding="utf-8")
    code, out, err = _run(capsys, "ingest", "--csv", str(csv_path), "--profile", str(profile))
    assert code == 1
    assert "configuration error" in err and "JSON object" in err
    assert out == ""


def _bad_paths(tmp_path):
    """Inputs and outputs that cannot be read or written as asked, and a
    one-class profile and CSV that ingest and eval accept otherwise."""
    (tmp_path / "a-directory").mkdir()
    (tmp_path / "a-file").write_text("x", encoding="utf-8")
    (tmp_path / "latin1.json").write_bytes(b'{"seed": 1, "note": "caf\xe9"}')
    (tmp_path / "latin1.csv").write_bytes(b"f,label\n1,calm\n2,caf\xe9\n")
    # one field over the csv module's 131,072-character limit, on line 3
    big = "f,label\n1,calm\n" + "2" * 140_000 + ",calm\n"
    (tmp_path / "big.csv").write_text(big, encoding="utf-8")
    rows = "".join(f"{i},calm\n" for i in range(10))
    (tmp_path / "ok.csv").write_text("f,label\n" + rows, encoding="utf-8")
    profile = {"name": "one", "label_column": "label", "class_names": ["calm"]}
    (tmp_path / "one.json").write_text(json.dumps(profile), encoding="utf-8")
    (tmp_path / "latin1.model.json").write_bytes(b'{"kind": "caf\xe9"}')
    tiny = {"seed": 1, "dataset": {"kind": "synthetic", "n_rows": 50, "profile": "cse2018"},
            "models": ["baseline"]}
    (tmp_path / "tiny.json").write_text(json.dumps(tiny), encoding="utf-8")
    # a directory where an artifact or a sidecar is to be written
    (tmp_path / "r" / "metrics.json").mkdir(parents=True)
    (tmp_path / "s.csv.spec.json").mkdir()


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["report", "--config", "a-directory"], 1, "cannot read config file"),
        (["report", "--config", "latin1.json"], 1, "latin1.json is not valid JSON"),
        (["ingest", "--csv", "latin1.csv", "--profile", "one.json"], 2, "not UTF-8 text"),
        (["ingest", "--csv", "big.csv", "--profile", "one.json"], 2, "big.csv: line 3: field"),
        (["ingest", "--csv", "a-directory", "--profile", "one.json"], 2, "cannot read"),
        (
            ["eval", "--model", "a-directory", "--csv", "ok.csv", "--profile", "one.json"],
            2,
            "cannot read model file",
        ),
        (
            ["eval", "--model", "latin1.model.json", "--csv", "ok.csv", "--profile", "one.json"],
            2,
            "latin1.model.json: invalid JSON",
        ),
        (
            ["ingest", "--csv", "ok.csv", "--profile", "one.json", "--out", "a-file"],
            2,
            "cannot create output directory",
        ),
        (
            ["synth", "--rows", "20", "--profile", "cse2018", "--out", "a-file/x.csv"],
            2,
            "cannot create output directory",
        ),
        (
            ["synth", "--rows", "20", "--profile", "cse2018", "--out", "a-directory"],
            2,
            "cannot write a-directory",
        ),
        (["report", "--config", "tiny.json", "--out", "r"], 2, "cannot write r/metrics.json"),
        (
            ["synth", "--rows", "20", "--profile", "cse2018", "--out", "s.csv"],
            2,
            "cannot write s.csv.spec.json",
        ),
    ],
    ids=[
        "config-directory", "config-not-utf8", "csv-not-utf8", "csv-field-too-large",
        "csv-directory", "model-directory", "model-not-utf8", "ingest-out-file",
        "synth-out-under-file", "synth-out-directory", "report-artifact-directory",
        "synth-sidecar-directory",
    ],
)
def test_bad_paths_are_usage_or_data_errors(tmp_path, capsys, monkeypatch, argv, code, message):
    _bad_paths(tmp_path)
    monkeypatch.chdir(tmp_path)
    got, _, err = _run(capsys, *argv)
    assert got == code, err
    assert message in err


@pytest.mark.parametrize("sidecar", ["spec.json", "profile.json"])
def test_synth_removes_what_it_wrote_when_a_sidecar_cannot_be_written(
    tmp_path, capsys, monkeypatch, sidecar
):
    (tmp_path / f"flows.csv.{sidecar}").mkdir()
    monkeypatch.chdir(tmp_path)
    argv = ["synth", "--rows", "20", "--profile", "cse2018", "--out", "flows.csv"]
    code, _, err = _run(capsys, *argv)
    assert code == 2, err
    assert f"cannot write flows.csv.{sidecar}" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"flows.csv.{sidecar}"]


def test_ingest_writes_to_a_new_directory(tmp_path, capsys, monkeypatch):
    _bad_paths(tmp_path)
    monkeypatch.chdir(tmp_path)
    code, _, err = _run(capsys, "ingest", "--csv", "ok.csv", "--profile", "one.json", "--out", "new")
    assert code == 0, err
    assert (tmp_path / "new" / "train.csv").exists()


@pytest.mark.parametrize(
    "change, message",
    [
        ({"class_names": []}, "profile 'one' has no class_names"),
        ({"class_names": ["calm", "burst", "calm"]}, r"repeats class names \['calm'\]"),
        ({"drop_columns": ["f", "label"]}, "drops its label column 'label'"),
    ],
    ids=["no-classes", "repeated-class", "drops-label"],
)
def test_a_bad_profile_is_a_configuration_error_before_the_csv_is_read(
    tmp_path, capsys, change, message
):
    doc = {"name": "one", "label_column": "label", "class_names": ["calm"], **change}
    profile = tmp_path / "p.json"
    profile.write_text(json.dumps(doc), encoding="utf-8")
    # the CSV does not exist: reading it would be a data error
    argv = ["ingest", "--csv", str(tmp_path / "absent.csv"), "--profile", str(profile)]
    code, _, err = _run(capsys, *argv)
    assert code == 1, err
    assert re.search(message, err), err


def test_synth_sidecars_and_stdout_are_pinned(tmp_path, capsys, monkeypatch):
    # recorded before the sidecars were written by settings_dict: the key
    # order and layout of each file, not only its content, must not move
    monkeypatch.chdir(tmp_path)
    code, out, err = _run(
        capsys, "synth", "--rows", "20", "--profile", "cse2018", "--dup-rate", "0.1",
        "--nan-rate", "0.1", "--inf-rate", "0.05", "--constant-cols", "1", "--seed", "4",
        "--out", "flows.csv",
    )
    assert code == 0, err
    for suffix in ("spec.json", "profile.json"):
        written = (tmp_path / f"flows.csv.{suffix}").read_bytes()
        assert written == (DATA / f"synth_sidecar.{suffix}").read_bytes(), suffix
    assert out == (DATA / "synth_sidecar.stdout.txt").read_text(encoding="utf-8")


def test_tune_prints_best_point(tmp_path, capsys):
    config = _write_config(
        tmp_path,
        models=[],
        tuning={"enabled": True, "n_particles": 4, "n_iterations": 3},
    )
    code, out, _ = _run(capsys, "tune", "--config", str(config))
    assert code == 0
    assert "best point" in out
    assert "default fitness" in out
    assert (tmp_path / "out" / "figure_tuning_trace.csv").exists()


def test_report_determinism_across_thread_caps(tmp_path, capsys, monkeypatch):
    config = _write_config(tmp_path, models=["baseline", "dt", "rf"])
    monkeypatch.setenv("FLOWGATE_THREADS", "1")
    code, _, _ = _run(capsys, "report", "--config", str(config), "--out", str(tmp_path / "a"))
    assert code == 0
    monkeypatch.setenv("FLOWGATE_THREADS", "8")
    code, _, _ = _run(capsys, "report", "--config", str(config), "--out", str(tmp_path / "b"))
    assert code == 0
    for name in ("metrics.json", "table_metrics.csv", "table_average.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_train_writes_identical_models_and_tables_at_any_worker_cap(
    tmp_path, capsys, monkeypatch
):
    # four usable CPUs, so caps 2 and 4 fork one and three workers for the
    # forest's trees and for each boosting round's class trees
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
    config = _write_config(
        tmp_path,
        models=["baseline", "dt", {"type": "rf", "n_trees": 5}, {"type": "gbt", "n_rounds": 2}],
    )
    outputs = {}
    for cap in ("1", "2", "4"):
        monkeypatch.setenv("FLOWGATE_THREADS", cap)
        out = tmp_path / f"threads-{cap}"
        argv = ["train", "--config", str(config), "--out", str(out), "--save-models"]
        code, _, err = _run(capsys, *argv)
        assert code == 0, err
        outputs[cap] = {
            p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "manifest.json"
        }
    assert {"model_rf.json", "model_gbt.json", "metrics.json", "table_metrics.csv"} <= set(
        outputs["1"]
    )
    assert outputs["2"] == outputs["1"]
    assert outputs["4"] == outputs["1"]
