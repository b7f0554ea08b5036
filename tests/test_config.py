"""Experiment configuration: parsing, validation, stable hashing."""

import json

import pytest

from flowgate.config import (
    CorruptionConfig,
    DatasetConfig,
    ExperimentConfig,
    ModelSpec,
    TuningConfig,
)
from flowgate.errors import ConfigError


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
    spec = config.dataset.synth_spec(config.seed)
    assert spec.class_names[0] == "Benign"
    assert len(spec.class_names) == 7


def test_synthetic_needs_names_and_ratios_together():
    with pytest.raises(ConfigError, match="together"):
        DatasetConfig.from_dict(
            {"kind": "synthetic", "n_rows": 10, "class_names": ["a"]}, base_dir=None
        )


def test_csv_dataset_with_builtin_profile(tmp_path):
    config = ExperimentConfig.from_dict(
        _doc(dataset={"kind": "csv", "path": "rows.csv", "profile": "litnet2020"}),
        base_dir=tmp_path,
    )
    assert config.dataset.path == str(tmp_path / "rows.csv")
    assert config.dataset.resolve_profile().name == "litnet2020"
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
    assert config.dataset.resolve_profile().label_column == "y"


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
    assert config.dataset.resolve_profile().name == "x"


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
    tuning = TuningConfig.from_dict({"enabled": True})
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
    epso = config.tuning.epso_config(seed=7)
    assert (epso.c1, epso.c2, epso.seed, epso.seed_point) == (2, 2.5, 7, (64, 2, 1))


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
