"""Experiment configuration: parsing, validation, stable hashing."""

import json
from dataclasses import fields

import pytest

from flowgate.cli import main
from flowgate.config import (
    CorruptionConfig,
    CsvDataset,
    ExperimentConfig,
    ModelSpec,
    SyntheticDataset,
    TuningConfig,
)
from flowgate.errors import ConfigError
from flowgate.swarm import EpsoConfig


def _doc(**overrides):
    base = {
        "seed": 7,
        "dataset": {
            "kind": "synthetic",
            "n_rows": 500,
            "class_names": ["a", "b"],
            "class_ratios": [0.8, 0.2],
        },
        "models": ["baseline", "dt"],
    }
    base.update(overrides)
    return base


def test_minimal_document_parses():
    config = ExperimentConfig.from_dict(_doc())
    assert config.seed == 7
    assert [m.type for m in config.models] == ["baseline", "dt"]
    assert config.split_ratio == 0.8
    assert config.metric_mode == "weighted"
    assert config.tuning.enabled is False


def test_seed_is_mandatory():
    doc = _doc()
    del doc["seed"]
    with pytest.raises(ConfigError, match="seed"):
        ExperimentConfig.from_dict(doc)


def test_boolean_seed_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_doc(seed=True))


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="epochs"):
        ExperimentConfig.from_dict(_doc(epochs=10))


def test_unknown_preprocess_key_rejected():
    with pytest.raises(ConfigError, match="scaler"):
        ExperimentConfig.from_dict(_doc(preprocess={"scaler": "standard"}))


def test_unknown_tuning_key_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_doc(tuning={"enabled": True, "swarm_size": 5}))


def test_duplicate_model_types_rejected():
    with pytest.raises(ConfigError, match="listed twice"):
        ExperimentConfig.from_dict(_doc(models=["dt", {"type": "dt", "max_depth": 3}]))


def test_model_params_survive_parsing():
    config = ExperimentConfig.from_dict(
        _doc(models=[{"type": "dt", "max_depth": 9, "min_samples_leaf": 2}])
    )
    assert config.models[0].params_dict() == {"max_depth": 9, "min_samples_leaf": 2}
    assert config.models[0].display_name == "DT"


def test_unknown_model_type_rejected():
    with pytest.raises(ConfigError, match="svm"):
        ExperimentConfig.from_dict(_doc(models=["svm"]))


def test_needs_a_model_or_tuning():
    with pytest.raises(ConfigError, match="at least one model"):
        ExperimentConfig.from_dict(_doc(models=[]))
    config = ExperimentConfig.from_dict(_doc(models=[], tuning={"enabled": True}))
    assert config.tuning.enabled


def test_synthetic_dataset_via_builtin_mix():
    config = ExperimentConfig.from_dict(
        _doc(dataset={"kind": "synthetic", "n_rows": 100, "profile": "cse2018"})
    )
    assert isinstance(config.dataset, SyntheticDataset)
    spec = config.dataset.spec(config.seed)
    assert spec.class_names[0] == "Benign"
    assert len(spec.class_names) == 7
    assert spec.seed == config.seed


def test_synthetic_needs_names_and_ratios_together():
    with pytest.raises(ConfigError, match="together"):
        ExperimentConfig.from_dict(
            _doc(dataset={"kind": "synthetic", "n_rows": 10, "class_names": ["a"]})
        )


def _synthetic(**keys):
    return {**_doc()["dataset"], **keys}


def _profiled(**keys):
    return {"kind": "synthetic", "n_rows": 100, "profile": "cse2018", **keys}


@pytest.mark.parametrize(
    "dataset, message",
    [
        (_synthetic(n_featurs=9), r"dataset has unknown keys \['n_featurs'\]"),
        (_synthetic(path="rows.csv"), r"dataset has unknown keys \['path'\]"),
        (_synthetic(profile="cse2018"), "either 'profile' or class_names/class_ratios"),
        (_profiled(profile="cse2019"), "unknown profile 'cse2019'"),
        (_profiled(profile=2018), "dataset.profile must be a string"),
        (_profiled(n_features=1), "dataset settings are invalid: n_features must be >= 2"),
        (_synthetic(n_rows=0), "dataset settings are invalid: n_rows must be >= 1"),
        (_synthetic(class_ratios=[0.8, 0.3]), "dataset settings are invalid: class ratios"),
        (_synthetic(class_ratios=[0.8, "0.2"]), "dataset.class_ratios item must be a number"),
        (_profiled(cluster_separation=-1), "dataset settings are invalid: cluster_separation"),
        (_synthetic(cluster_separation=None), "dataset.cluster_separation must be a number"),
        (_synthetic(n_rows=2.5), "dataset.n_rows must be an integer"),
    ],
)
def test_bad_synthetic_dataset_rejected(dataset, message):
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig.from_dict(_doc(dataset=dataset))


def test_synthetic_dataset_needs_rows_and_a_class_mix():
    with pytest.raises(ConfigError, match="dataset is missing required key 'n_rows'"):
        ExperimentConfig.from_dict(_doc(dataset={"kind": "synthetic", "profile": "cse2018"}))
    with pytest.raises(ConfigError, match="either 'profile' or class_names"):
        ExperimentConfig.from_dict(_doc(dataset={"kind": "synthetic", "n_rows": 10}))


def test_dataset_reals_are_kept_as_written():
    # an integer separation or ratio stays an integer in the echo and the hash
    doc = _doc()
    doc["dataset"].update(class_ratios=[1, 0], cluster_separation=2)
    config = ExperimentConfig.from_dict(doc)
    echoed = config.to_dict()["dataset"]
    assert echoed["class_ratios"] == [1, 0] and isinstance(echoed["class_ratios"][0], int)
    assert isinstance(echoed["cluster_separation"], int)
    assert '"cluster_separation":2,' in config.canonical_json()
    doc["dataset"].update(class_ratios=[1.0, 0.0], cluster_separation=2.0)
    floats = ExperimentConfig.from_dict(doc)
    assert config.config_hash() != floats.config_hash()
    assert config.dataset.spec(7) == floats.dataset.spec(7)  # the same rows


def test_csv_dataset_with_builtin_profile(tmp_path):
    config = ExperimentConfig.from_dict(
        _doc(dataset={"kind": "csv", "path": "rows.csv", "profile": "litnet2020"}),
        base_dir=tmp_path,
    )
    assert isinstance(config.dataset, CsvDataset)
    assert config.dataset.path == str(tmp_path / "rows.csv")
    assert config.dataset.profile.name == "litnet2020"
    assert config.to_dict()["dataset"]["profile"] == "litnet2020"


def test_csv_dataset_with_profile_file(tmp_path):
    profile_doc = {
        "name": "custom",
        "label_column": "y",
        "class_names": ["ok", "bad"],
    }
    (tmp_path / "prof.json").write_text(json.dumps(profile_doc), encoding="utf-8")
    config = ExperimentConfig.from_dict(
        _doc(dataset={"kind": "csv", "path": "rows.csv", "profile": "prof.json"}),
        base_dir=tmp_path,
    )
    assert config.dataset.profile.label_column == "y"
    assert config.to_dict()["dataset"]["profile"]["name"] == "custom"


def test_csv_dataset_with_inline_profile():
    config = ExperimentConfig.from_dict(
        _doc(
            dataset={
                "kind": "csv",
                "path": "/tmp/rows.csv",
                "profile": {"name": "x", "label_column": "y", "class_names": ["a"]},
            }
        )
    )
    assert config.dataset.profile.name == "x"


@pytest.mark.parametrize(
    "dataset, message",
    [
        ({"n_rows": 100}, r"dataset has unknown keys \['n_rows'\]"),
        ({"class_names": ["a"]}, r"dataset has unknown keys \['class_names'\]"),
        ({"path": None}, "dataset is missing required key 'path'"),
        ({"profile": None}, "dataset is missing required key 'profile'"),
    ],
)
def test_bad_csv_dataset_rejected(dataset, message):
    block = {"kind": "csv", "path": "rows.csv", "profile": "cse2018", **dataset}
    block = {k: v for k, v in block.items() if v is not None}
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig.from_dict(_doc(dataset=block))


def test_unknown_dataset_kind_rejected():
    with pytest.raises(ConfigError, match="dataset.kind must be one of"):
        ExperimentConfig.from_dict(_doc(dataset={"kind": "parquet"}))


def test_csv_profile_neither_builtin_nor_file(tmp_path):
    with pytest.raises(ConfigError, match="neither a builtin name"):
        ExperimentConfig.from_dict(
            _doc(dataset={"kind": "csv", "path": "r.csv", "profile": "ghost.json"}),
            base_dir=tmp_path,
        )


def test_corruption_defaults_are_noop():
    config = ExperimentConfig.from_dict(_doc())
    assert config.corruption.is_noop
    loud = ExperimentConfig.from_dict(
        _doc(corruption={"dup_rate": 0.05, "nan_rate": 0.01})
    )
    assert not loud.corruption.is_noop


def test_bad_rates_rejected():
    with pytest.raises(ConfigError):
        CorruptionConfig(dup_rate=1.5)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_doc(corruption={"nan_rate": -0.2}))


def test_tuning_defaults():
    tuning = ExperimentConfig.from_dict(_doc(tuning={"enabled": True})).tuning
    assert tuning.n_particles == 20
    assert tuning.n_iterations == 30
    assert tuning.holdout_fraction == 0.25
    assert tuning.memoize and tuning.inertia_decay and tuning.velocity_clamp
    assert tuning.seed_default_point


@pytest.mark.parametrize(
    "setting",
    [
        {"n_particles": 0},
        {"n_iterations": -1},
        {"velocity_fraction": 0.0},
        {"n_particles": 20.0},
        {"n_iterations": True},
        {"cognitive": "2"},
        {"memoize": 1},
        {"velocity_fraction": float("nan")},
        {"cognitive": float("inf")},
        {"social": float("-inf")},
        {"inertia_start": float("inf")},
        {"inertia_end": float("nan")},
    ],
)
def test_bad_tuning_settings_rejected(setting):
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_doc(tuning={"enabled": True, **setting}))


def test_tuning_values_are_kept_as_written():
    # an int where a float is expected stays an int, so the hash is unchanged
    config = ExperimentConfig.from_dict(_doc(tuning={"cognitive": 2, "social": 2.5}))
    assert config.to_dict()["tuning"]["cognitive"] == 2
    assert isinstance(config.tuning.cognitive, int)
    # the tuning block is the swarm's settings class
    assert isinstance(config.tuning, EpsoConfig)
    assert (config.tuning.cognitive, config.tuning.social) == (2, 2.5)
    assert config.tuning.seed_default_point


def test_corruption_values_are_kept_as_written():
    # an integer rate stays an integer in the echo and the hash
    config = ExperimentConfig.from_dict(_doc(corruption={"dup_rate": 0, "nan_rate": 0.01}))
    echoed = config.to_dict()["corruption"]
    assert echoed == {"dup_rate": 0, "nan_rate": 0.01, "inf_rate": 0.0, "n_constant_cols": 0}
    assert isinstance(echoed["dup_rate"], int)
    assert '"dup_rate":0,' in config.canonical_json()
    float_rate = ExperimentConfig.from_dict(
        _doc(corruption={"dup_rate": 0.0, "nan_rate": 0.01})
    )
    assert config.config_hash() != float_rate.config_hash()
    assert config.corruption == float_rate.corruption  # the same injection


def test_unknown_format_rejected():
    with pytest.raises(ConfigError, match="yaml"):
        ExperimentConfig.from_dict(_doc(formats=["yaml"]))


def test_unknown_metric_mode_rejected():
    with pytest.raises(ConfigError, match="micro"):
        ExperimentConfig.from_dict(_doc(metric_mode="micro"))


def test_round_trip_to_dict():
    config = ExperimentConfig.from_dict(_doc(output_dir="results"))
    again = ExperimentConfig.from_dict(config.to_dict())
    assert again == config


def test_hash_ignores_artifact_placement():
    a = ExperimentConfig.from_dict(_doc(output_dir="left", formats=["csv"]))
    b = ExperimentConfig.from_dict(_doc(output_dir="right", formats=["md", "json"]))
    assert a.config_hash() == b.config_hash()


def test_hash_tracks_result_shaping_fields():
    a = ExperimentConfig.from_dict(_doc())
    b = ExperimentConfig.from_dict(_doc(seed=8))
    c = ExperimentConfig.from_dict(_doc(metric_mode="macro"))
    assert a.config_hash() != b.config_hash()
    assert a.config_hash() != c.config_hash()


def test_from_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_doc()), encoding="utf-8")
    config = ExperimentConfig.from_file(path)
    assert config.seed == 7
    with pytest.raises(ConfigError, match="not found"):
        ExperimentConfig.from_file(tmp_path / "absent.json")
    (tmp_path / "broken.json").write_text("{", encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid JSON"):
        ExperimentConfig.from_file(tmp_path / "broken.json")


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"type": "rf", "bootstrap": "no"}, "true or false"),
        ({"type": "dt", "max_depth": "3"}, "integer"),
        ({"type": "dt", "max_depth": True}, "integer"),
        ({"type": "gbt", "n_rounds": 1.5}, "integer"),
        ({"type": "gbt", "max_depth": None}, "integer"),
        ({"type": "rf", "features_per_split": True}, "integer"),
        ({"type": "dt", "ccp_alpha": "0.1"}, "number"),
        ({"type": "dt", "max_depht": 3}, "unknown hyperparameters"),
        ({"type": "gbt", "n_trees": 3}, "unknown hyperparameters"),
        ({"type": "baseline", "max_depth": 3}, "unknown hyperparameters"),
        ({"type": "dt", "max_depth": 0}, "max_depth must be >= 1"),
        ({"type": "rf", "min_samples_leaf": 5}, "must not exceed"),
        ({"type": "gbt", "learning_rate": 2}, "learning_rate"),
        ({"type": "rf", "n_trees": 0}, "n_trees must be >= 1"),
        ({"type": "rf", "features_per_split": 0}, "features_per_split must be >= 1"),
    ],
)
def test_bad_model_specs_rejected(spec, message):
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig.from_dict(_doc(models=[spec]))


@pytest.mark.parametrize(
    "dataset_names, dataset_ratios, formats, message",
    [
        ("ab", [0.5, 0.5], None, "dataset.class_names must be a list of names, got 'ab'"),
        (["a", "b"], "55", None, "dataset.class_ratios must be a list of numbers"),
        (["a", "b"], [0.5, 0.5], "md", "formats must be a list of format names, got 'md'"),
    ],
)
def test_bare_strings_for_lists_rejected(dataset_names, dataset_ratios, formats, message):
    doc = _doc()
    doc["dataset"].update(class_names=dataset_names, class_ratios=dataset_ratios)
    if formats is not None:
        doc["formats"] = formats
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig.from_dict(doc)


def test_model_spec_values_are_kept_as_written():
    # no conversion: an int where a float is expected stays an int
    specs = [
        {"type": "dt", "max_depth": None, "ccp_alpha": 0},
        {"type": "rf", "n_trees": 3, "features_per_split": None, "bootstrap": False},
        {"type": "gbt", "learning_rate": 1, "l2_lambda": 0.5},
    ]
    config = ExperimentConfig.from_dict(_doc(models=specs))
    assert config.to_dict()["models"] == specs
    assert isinstance(config.models[0].hyperparams().ccp_alpha, int)
    forest = config.models[1].hyperparams()
    assert (forest.n_trees, forest.features_per_split, forest.bootstrap) == (3, None, False)
    assert config.models[1].hyperparams().max_depth is None


def test_model_spec_display_names():
    assert ModelSpec(type="baseline").display_name == "Baseline"
    assert ModelSpec(type="rf").display_name == "RF"
    assert ModelSpec(type="gbt").display_name == "GBT"


@pytest.mark.parametrize("value", [["dup_rate"], 5, "x"], ids=["list", "number", "string"])
@pytest.mark.parametrize("block", ["dataset", "corruption", "tuning", "preprocess", "model"])
def test_block_that_is_not_an_object_is_a_config_error(block, value, tmp_path):
    doc = _doc(models=[value]) if block == "model" else _doc(**{block: value})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(doc)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "out")]) == 1


@pytest.mark.parametrize(
    "preprocess", [{"split_ratio": 1.5}, {"fit_scope": "everything"}], ids=["ratio", "scope"]
)
def test_out_of_range_preprocess_value_is_a_config_error(preprocess, tmp_path):
    doc = _doc(preprocess=preprocess)
    with pytest.raises(ConfigError, match="preprocess settings are invalid"):
        ExperimentConfig.from_dict(doc)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "out")]) == 1


@pytest.mark.parametrize(
    "overrides, where",
    [
        ({"dataset": {**_doc()["dataset"], "kind": 5}}, "dataset.kind"),
        ({"dataset": {**_doc()["dataset"], "class_names": [1, 2]}}, "dataset.class_names item"),
        ({"dataset": {"kind": "csv", "path": 5, "profile": "cse2018"}}, "dataset.path"),
        ({"preprocess": {"fit_scope": 1}}, "preprocess.fit_scope"),
        ({"metric_mode": ["macro"]}, "metric_mode"),
        ({"output_dir": 5}, "output_dir"),
        ({"formats": ["csv", 1]}, "formats item"),
        ({"models": [{"type": 1}]}, r"models\[0\].type"),
    ],
)
def test_non_strings_are_rejected_where_a_string_belongs(overrides, where):
    # converting them would echo and hash 5 as "5"
    with pytest.raises(ConfigError, match=f"^{where} must be a string"):
        ExperimentConfig.from_dict(_doc(**overrides))


# -- pinned config identity ----------------------------------------------------
# canonical_json() and config_hash() identify a run, so these literals must
# not move when the way a block is read or written changes.

GATE6_DOC = {
    "seed": 2026,
    "dataset": {
        "kind": "synthetic",
        "n_rows": 50_000,
        "profile": "cse2018",
        "n_features": 6,
        "cluster_separation": 8.0,
    },
    "corruption": {"dup_rate": 0.05, "nan_rate": 0.01, "n_constant_cols": 2},
    "models": ["dt"],
    "tuning": {"enabled": True, "holdout_fraction": 0.5},
}

GATE6_CANONICAL = (
    '{"corruption":{"dup_rate":0.05,"inf_rate":0.0,"n_constant_cols":2,"nan_rate":0.01},'
    '"dataset":{"cluster_separation":8.0,"kind":"synthetic","n_features":6,'
    '"n_rows":50000,"profile":"cse2018"},"metric_mode":"weighted","models":["dt"],'
    '"preprocess":{"fit_scope":"full_dataset","split_ratio":0.8},"seed":2026,'
    '"tuning":{"cognitive":2.0,"enabled":true,"holdout_fraction":0.5,'
    '"inertia_decay":true,"inertia_end":0.4,"inertia_start":0.9,"memoize":true,'
    '"n_iterations":30,"n_particles":20,"seed_default_point":true,"social":2.0,'
    '"velocity_clamp":true,"velocity_fraction":0.2}}'
)

# every tuning and corruption key, and a spec for every model type
FULL_DOC = {
    "seed": 11,
    "dataset": {
        "kind": "synthetic",
        "n_rows": 900,
        "class_names": ["a", "b", "c"],
        "class_ratios": [0.6, 0.3, 0.1],
        "n_features": 4,
        "cluster_separation": 2.5,
    },
    "corruption": {"dup_rate": 0.04, "nan_rate": 0.02, "inf_rate": 0.01, "n_constant_cols": 1},
    "preprocess": {"split_ratio": 0.75, "fit_scope": "train_only"},
    "models": [
        "baseline",
        {"type": "dt", "max_depth": 12, "min_samples_split": 4, "min_samples_leaf": 2,
         "ccp_alpha": 0.001},
        {"type": "rf", "n_trees": 7, "features_per_split": 2, "bootstrap": False,
         "max_depth": None, "min_samples_split": 3, "min_samples_leaf": 1, "ccp_alpha": 0},
        {"type": "gbt", "n_rounds": 4, "learning_rate": 0.2, "max_depth": 2, "l2_lambda": 2},
    ],
    "tuning": {
        "enabled": True, "n_particles": 9, "n_iterations": 7, "holdout_fraction": 0.4,
        "inertia_start": 0.8, "inertia_end": 0.3, "cognitive": 1.5, "social": 2,
        "velocity_fraction": 0.25, "memoize": False, "inertia_decay": False,
        "velocity_clamp": False, "seed_default_point": False,
    },
    "metric_mode": "macro",
}

FULL_CANONICAL = (
    '{"corruption":{"dup_rate":0.04,"inf_rate":0.01,"n_constant_cols":1,"nan_rate":0.02},'
    '"dataset":{"class_names":["a","b","c"],"class_ratios":[0.6,0.3,0.1],'
    '"cluster_separation":2.5,"kind":"synthetic","n_features":4,"n_rows":900},'
    '"metric_mode":"macro","models":["baseline",{"ccp_alpha":0.001,"max_depth":12,'
    '"min_samples_leaf":2,"min_samples_split":4,"type":"dt"},{"bootstrap":false,'
    '"ccp_alpha":0,"features_per_split":2,"max_depth":null,"min_samples_leaf":1,'
    '"min_samples_split":3,"n_trees":7,"type":"rf"},{"l2_lambda":2,"learning_rate":0.2,'
    '"max_depth":2,"n_rounds":4,"type":"gbt"}],"preprocess":{"fit_scope":"train_only",'
    '"split_ratio":0.75},"seed":11,"tuning":{"cognitive":1.5,"enabled":true,'
    '"holdout_fraction":0.4,"inertia_decay":false,"inertia_end":0.3,"inertia_start":0.8,'
    '"memoize":false,"n_iterations":7,"n_particles":9,"seed_default_point":false,'
    '"social":2,"velocity_clamp":false,"velocity_fraction":0.25}}'
)


# csv datasets: a builtin profile echoes by name, an inline one as its document
_CSV_TAIL = (
    '"metric_mode":"weighted","models":["baseline",{"max_depth":4,"type":"dt"}],'
    '"preprocess":{"fit_scope":"full_dataset","split_ratio":0.8},"seed":5,'
    '"tuning":{"cognitive":2.0,"enabled":false,"holdout_fraction":0.25,'
    '"inertia_decay":true,"inertia_end":0.4,"inertia_start":0.9,"memoize":true,'
    '"n_iterations":30,"n_particles":20,"seed_default_point":true,"social":2.0,'
    '"velocity_clamp":true,"velocity_fraction":0.2}}'
)
_CSV_HEAD = (
    '{"corruption":{"dup_rate":0.0,"inf_rate":0.0,"n_constant_cols":0,"nan_rate":0.0},'
)


def _csv_doc(profile):
    return {
        "seed": 5,
        "dataset": {"kind": "csv", "path": "/data/flows.csv", "profile": profile},
        "models": ["baseline", {"type": "dt", "max_depth": 4}],
    }


CSV_BUILTIN_DOC = _csv_doc("litnet2020")
CSV_BUILTIN_CANONICAL = (
    _CSV_HEAD
    + '"dataset":{"kind":"csv","path":"/data/flows.csv","profile":"litnet2020"},'
    + _CSV_TAIL
)
CSV_INLINE_DOC = _csv_doc(
    {"name": "custom", "label_column": "y", "class_names": ["ok", "bad"], "drop_columns": ["id"]}
)
CSV_INLINE_CANONICAL = (
    _CSV_HEAD
    + '"dataset":{"kind":"csv","path":"/data/flows.csv","profile":{"class_names":["ok","bad"],'
    + '"drop_columns":["id"],"label_column":"y","name":"custom","zero_columns_expected":[]}},'
    + _CSV_TAIL
)

_PARTS = ("year", "month", "day", "hour", "minute", "second")
CSV_MERGE_DOC = _csv_doc(
    {
        "name": "merged",
        "label_column": "attack_t",
        "class_names": ["none", "Smurf"],
        "drop_columns": ["ID"],
        "zero_columns_expected": ["fwd"],
        "timestamp_merge": {
            "start_columns": [f"ts_{p}" for p in _PARTS],
            "end_columns": [f"te_{p}" for p in _PARTS],
        },
    }
)
CSV_MERGE_CANONICAL = (
    _CSV_HEAD
    + '"dataset":{"kind":"csv","path":"/data/flows.csv","profile":{"class_names":["none",'
    + '"Smurf"],"drop_columns":["ID"],"label_column":"attack_t","name":"merged",'
    + '"timestamp_merge":{"end_columns":["te_year","te_month","te_day","te_hour",'
    + '"te_minute","te_second"],"start_columns":["ts_year","ts_month","ts_day","ts_hour",'
    + '"ts_minute","ts_second"]},"zero_columns_expected":["fwd"]}},'
    + _CSV_TAIL
)


@pytest.mark.parametrize(
    "doc, canonical, digest",
    [
        (
            GATE6_DOC,
            GATE6_CANONICAL,
            "aa64e9fd71a80423ede89b6dfc9e41773d6e0572f63a7abb48a6464377f50ac5",
        ),
        (
            FULL_DOC,
            FULL_CANONICAL,
            "b701b1b245f97abea0baf1309c67b8dd3f312f865c0cce3a7c984dfe62f25568",
        ),
        (
            CSV_BUILTIN_DOC,
            CSV_BUILTIN_CANONICAL,
            "d40e4a9bd2ad6658ab735915d8db451f999745727e2bcf68657b401285356ef4",
        ),
        (
            CSV_INLINE_DOC,
            CSV_INLINE_CANONICAL,
            "42ee9a3c36518c70cd07d20ea8ec53b19544ebaed708bcfc08b058768d6bd174",
        ),
        (
            CSV_MERGE_DOC,
            CSV_MERGE_CANONICAL,
            "eb5d031705ada0181ac1a89d8e9ba07d4af9afb60b438ca53d84cfcfd506a9bb",
        ),
    ],
    ids=[
        "gate6", "every-key", "csv-builtin-profile", "csv-inline-profile",
        "csv-profile-timestamp-merge",
    ],
)
def test_config_identity_is_pinned(doc, canonical, digest):
    config = ExperimentConfig.from_dict(doc)
    assert config.canonical_json() == canonical
    assert config.config_hash() == digest
    assert ExperimentConfig.from_dict(config.to_dict()) == config


def test_settings_blocks_keep_their_keys():
    tuning_keys = {
        "n_particles", "n_iterations", "inertia_start", "inertia_end", "cognitive",
        "social", "velocity_fraction", "memoize", "inertia_decay", "velocity_clamp",
        "enabled", "holdout_fraction", "seed_default_point",
    }
    assert {f.name for f in fields(TuningConfig)} == set(FULL_DOC["tuning"]) == tuning_keys
    assert {f.name for f in fields(CorruptionConfig)} == set(FULL_DOC["corruption"])
    dataset_keys = set(FULL_DOC["dataset"]) - {"kind"} | {"profile"}
    assert {f.name for f in fields(SyntheticDataset)} == dataset_keys
    assert {f.name for f in fields(CsvDataset)} == set(CSV_BUILTIN_DOC["dataset"]) - {"kind"}
    assert len(FULL_DOC["corruption"]) == 4
    types = [m if isinstance(m, str) else m["type"] for m in FULL_DOC["models"]]
    assert sorted(types) == ["baseline", "dt", "gbt", "rf"]
