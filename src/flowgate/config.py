"""Experiment configuration: parsing, validation, canonical hashing.

A run is described by one JSON document. The document is validated into an
ExperimentConfig up front so a bad field fails before any work starts, and
the canonical re-serialization is hashed into the run manifest so two runs
can be compared by configuration identity.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any, Mapping

from .errors import ConfigError, DataError
from .models import ForestParams, GbtParams, TreeHyperparams
from .prep import FIT_FULL_DATASET, PrepOptions
from .profiles import (
    BUILTIN_PROFILES,
    DatasetProfile,
    as_list,
    as_names,
    as_object,
    as_str,
    builtin_profile,
    resolve_profile,
)
from .swarm import EpsoConfig
from .synth import SynthSpec

MODEL_BASELINE = "baseline"
MODEL_DT = "dt"
MODEL_RF = "rf"
MODEL_GBT = "gbt"

# display name and settings class of each model type; a settings class is
# the type's whole hyperparameter schema: keys, defaults and range checks
MODEL_TYPES: dict[str, tuple[str, type | None]] = {
    MODEL_BASELINE: ("Baseline", None),
    MODEL_DT: ("DT", TreeHyperparams),
    MODEL_RF: ("RF", ForestParams),
    MODEL_GBT: ("GBT", GbtParams),
}

_DATASET_KINDS = ("synthetic", "csv")
_FORMATS = ("csv", "md", "json")


def _require(doc: Mapping, key: str, where: str) -> Any:
    if key not in doc:
        raise ConfigError(f"{where} is missing required key {key!r}")
    return doc[key]


def _as_int(value: Any, where: str) -> int:
    # bools are ints in Python; reject them so "true" seeds fail loudly
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return value


def _as_float(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    return float(value)


def _check_type(value: Any, default: Any, where: str) -> None:
    """Check that ``value`` has the JSON type of ``default``, converting
    nothing (a converted value would change the config hash). A None default
    admits an integer or null."""
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ConfigError(f"{where} must be true or false, got {value!r}")
    elif isinstance(default, int) or (default is None and value is not None):
        _as_int(value, where)
    elif isinstance(default, float):
        _as_float(value, where)


def _read_settings(cls: type, doc: Any, where: str, keys: str = "keys") -> Any:
    """Build the settings class ``cls`` from the config block ``doc``.

    The block must be an object whose keys are fields of ``cls`` and whose
    values have the JSON types of the fields' defaults; nothing is converted.
    A range check that fails in ``cls`` is a configuration error.
    """
    defaults = {f.name: f.default for f in fields(cls)}
    as_object(doc, where, defaults, keys)
    for key, value in doc.items():
        _check_type(value, defaults[key], f"{where}.{key}")
    try:
        return cls(**doc)
    except DataError as exc:
        raise ConfigError(f"{where} settings are invalid: {exc}") from None


@dataclass(frozen=True)
class ModelSpec:
    """One classifier to train: a type tag plus keyword overrides.

    Keys, JSON types and ranges are checked when the spec is built, so a bad
    hyperparameter fails when the config loads, before any dataset work.
    """

    type: str
    params: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.type not in MODEL_TYPES:
            raise ConfigError(
                f"unknown model type {self.type!r}; expected one of {list(MODEL_TYPES)}"
            )
        settings = MODEL_TYPES[self.type][1]
        if settings is not None:
            _read_settings(settings, self.params_dict(), self.type, "hyperparameters")
        elif self.params:  # the baseline has no settings
            unknown = sorted(self.params_dict())
            raise ConfigError(f"{self.type} has unknown hyperparameters {unknown}")

    @property
    def display_name(self) -> str:
        return MODEL_TYPES[self.type][0]

    def params_dict(self) -> dict[str, Any]:
        return dict(self.params)

    def hyperparams(self) -> TreeHyperparams | GbtParams | None:
        """The type's settings class, defaults filled in; None for baseline."""
        settings = MODEL_TYPES[self.type][1]
        return settings(**self.params_dict()) if settings else None

    @classmethod
    def from_value(cls, value: Any, where: str) -> "ModelSpec":
        if isinstance(value, str):
            return cls(type=value)
        if isinstance(value, Mapping):
            doc = dict(value)
            kind = as_str(_require(doc, "type", where), f"{where}.type")
            doc.pop("type")
            return cls(type=kind, params=tuple(sorted(doc.items())))
        raise ConfigError(f"{where} must be a model name or an object with a 'type' key")

    def to_value(self) -> Any:
        if not self.params:
            return self.type
        doc: dict[str, Any] = {"type": self.type}
        doc.update(self.params_dict())
        return doc


@dataclass(frozen=True)
class DatasetConfig:
    """Where the rows come from: a seeded generator or a CSV file."""

    kind: str
    n_rows: int = 0
    profile_name: str | None = None
    class_names: tuple[str, ...] = ()
    class_ratios: tuple[float, ...] = ()
    n_features: int = 6
    cluster_separation: float = 8.0
    path: str | None = None
    profile: DatasetProfile | None = None

    def __post_init__(self) -> None:
        if self.kind not in _DATASET_KINDS:
            raise ConfigError(
                f"dataset.kind must be one of {list(_DATASET_KINDS)}, got {self.kind!r}"
            )
        if self.kind == "synthetic":
            if self.n_rows < 1:
                raise ConfigError("dataset.n_rows must be >= 1 for synthetic data")
            if self.profile_name is None and not self.class_names:
                raise ConfigError(
                    "synthetic dataset needs either 'profile' or class_names/class_ratios"
                )
        else:
            if not self.path:
                raise ConfigError("dataset.path is required when kind is 'csv'")
            if self.profile is None and self.profile_name is None:
                raise ConfigError("csv dataset needs a 'profile'")

    def synth_spec(self, seed: int) -> SynthSpec:
        if self.kind != "synthetic":
            raise ConfigError("synth_spec is only defined for synthetic datasets")
        if self.profile_name is not None:
            return SynthSpec.from_profile_name(
                self.profile_name,
                n_rows=self.n_rows,
                n_features=self.n_features,
                cluster_separation=self.cluster_separation,
                seed=seed,
            )
        return SynthSpec(
            n_rows=self.n_rows,
            class_names=self.class_names,
            class_ratios=self.class_ratios,
            n_features=self.n_features,
            cluster_separation=self.cluster_separation,
            seed=seed,
        )

    def resolve_profile(self) -> DatasetProfile:
        if self.profile is not None:
            return self.profile
        if self.kind == "synthetic":
            return self.synth_spec(0).profile()
        assert self.profile_name is not None
        return builtin_profile(self.profile_name)

    @classmethod
    def from_dict(cls, doc: Any, base_dir: Path) -> "DatasetConfig":
        if not isinstance(doc, Mapping):
            raise ConfigError(f"dataset must be an object, got {doc!r}")
        kind = as_str(_require(doc, "kind", "dataset"), "dataset.kind")
        if kind == "synthetic":
            ratios = doc.get("class_ratios")
            names = doc.get("class_names")
            profile_name = doc.get("profile")
            if profile_name is not None and not isinstance(profile_name, str):
                raise ConfigError("dataset.profile must be a builtin profile name")
            if (ratios is None) != (names is None):
                raise ConfigError("class_names and class_ratios must be given together")
            if names is not None:
                names = as_names(names, "dataset.class_names")
                ratios = tuple(
                    _as_float(r, "dataset.class_ratios")
                    for r in as_list(ratios, "dataset.class_ratios", "numbers")
                )
            return cls(
                kind=kind,
                n_rows=_as_int(_require(doc, "n_rows", "dataset"), "dataset.n_rows"),
                profile_name=profile_name,
                class_names=names or (),
                class_ratios=ratios or (),
                n_features=_as_int(doc.get("n_features", 6), "dataset.n_features"),
                cluster_separation=_as_float(
                    doc.get("cluster_separation", 8.0), "dataset.cluster_separation"
                ),
            )
        if kind == "csv":
            profile_value = _require(doc, "profile", "dataset")
            profile = resolve_profile(profile_value, base_dir)
            # a builtin is echoed by name, any other profile as its document
            builtin = isinstance(profile_value, str) and profile_value in BUILTIN_PROFILES
            path = as_str(_require(doc, "path", "dataset"), "dataset.path")
            resolved = Path(path)
            if not resolved.is_absolute():
                resolved = base_dir / resolved
            return cls(
                kind=kind,
                path=str(resolved),
                profile_name=profile_value if builtin else None,
                profile=profile,
            )
        raise ConfigError(f"dataset.kind must be one of {list(_DATASET_KINDS)}, got {kind!r}")

    def to_dict(self) -> dict:
        if self.kind == "synthetic":
            doc: dict[str, Any] = {"kind": self.kind, "n_rows": self.n_rows}
            if self.profile_name is not None:
                doc["profile"] = self.profile_name
            if self.class_names:
                doc["class_names"] = list(self.class_names)
                doc["class_ratios"] = list(self.class_ratios)
            doc["n_features"] = self.n_features
            doc["cluster_separation"] = self.cluster_separation
            return doc
        doc = {"kind": self.kind, "path": self.path}
        if self.profile_name is not None:
            doc["profile"] = self.profile_name
        elif self.profile is not None:
            doc["profile"] = self.profile.to_dict()
        return doc


@dataclass(frozen=True)
class CorruptionConfig:
    dup_rate: float = 0.0
    nan_rate: float = 0.0
    inf_rate: float = 0.0
    n_constant_cols: int = 0

    def __post_init__(self) -> None:
        for name in ("dup_rate", "nan_rate", "inf_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ConfigError(f"corruption.{name} must be in [0, 1), got {rate}")
        if self.n_constant_cols < 0:
            raise ConfigError("corruption.n_constant_cols must be >= 0")

    @property
    def is_noop(self) -> bool:
        return (
            self.dup_rate == 0.0
            and self.nan_rate == 0.0
            and self.inf_rate == 0.0
            and self.n_constant_cols == 0
        )


@dataclass(frozen=True)
class TuningConfig(EpsoConfig):
    """The tuning block: the swarm's settings plus whether a run tunes, the
    share of the training side held out to score points, and whether one
    particle starts at the decision tree's default point."""

    enabled: bool = False
    holdout_fraction: float = 0.25
    seed_default_point: bool = True

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.holdout_fraction < 1.0:
            raise ConfigError("tuning.holdout_fraction must be in (0, 1)")


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    dataset: DatasetConfig
    models: tuple[ModelSpec, ...]
    corruption: CorruptionConfig = CorruptionConfig()
    split_ratio: float = 0.8
    fit_scope: str = FIT_FULL_DATASET
    tuning: TuningConfig = TuningConfig()
    metric_mode: str = "weighted"
    output_dir: str = "out"
    formats: tuple[str, ...] = ("csv", "md", "json")

    def __post_init__(self) -> None:
        if not self.models and not self.tuning.enabled:
            raise ConfigError("config needs at least one model or tuning enabled")
        if self.metric_mode not in ("weighted", "macro"):
            raise ConfigError(
                f"metric_mode must be 'weighted' or 'macro', got {self.metric_mode!r}"
            )
        seen = set()
        for spec in self.models:
            if spec.type in seen:
                raise ConfigError(f"model {spec.type!r} listed twice")
            seen.add(spec.type)
        for fmt in self.formats:
            if fmt not in _FORMATS:
                raise ConfigError(f"unknown output format {fmt!r}; expected {list(_FORMATS)}")
        try:  # PrepOptions checks the ratio and scope ranges
            PrepOptions(split_ratio=self.split_ratio, fit_scope=self.fit_scope)
        except DataError as exc:
            raise ConfigError(f"preprocess settings are invalid: {exc}") from None

    @classmethod
    def from_dict(cls, doc: Mapping, base_dir: str | Path = ".") -> "ExperimentConfig":
        known = (
            "seed", "dataset", "models", "corruption", "preprocess",
            "tuning", "metric_mode", "output_dir", "formats",
        )
        as_object(doc, "config", known)
        base = Path(base_dir)
        seed = _as_int(_require(doc, "seed", "config"), "seed")
        dataset = DatasetConfig.from_dict(_require(doc, "dataset", "config"), base)
        models = tuple(
            ModelSpec.from_value(v, f"models[{i}]")
            for i, v in enumerate(as_list(doc.get("models", []), "models", "model specs"))
        )
        corruption = _read_settings(CorruptionConfig, doc.get("corruption", {}), "corruption")
        prep_keys = ("split_ratio", "fit_scope")
        prep_doc = as_object(doc.get("preprocess", {}), "preprocess", prep_keys)
        return cls(
            seed=seed,
            dataset=dataset,
            models=models,
            corruption=corruption,
            split_ratio=_as_float(prep_doc.get("split_ratio", 0.8), "preprocess.split_ratio"),
            fit_scope=as_str(
                prep_doc.get("fit_scope", FIT_FULL_DATASET), "preprocess.fit_scope"
            ),
            tuning=_read_settings(TuningConfig, doc.get("tuning", {}), "tuning"),
            metric_mode=as_str(doc.get("metric_mode", "weighted"), "metric_mode"),
            output_dir=as_str(doc.get("output_dir", "out"), "output_dir"),
            formats=as_names(doc.get("formats", list(_FORMATS)), "formats", "format names"),
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        path = Path(path)
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
        return cls.from_dict(doc, base_dir=path.parent)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "dataset": self.dataset.to_dict(),
            "models": [m.to_value() for m in self.models],
            "corruption": asdict(self.corruption),
            "preprocess": {"split_ratio": self.split_ratio, "fit_scope": self.fit_scope},
            "tuning": asdict(self.tuning),
            "metric_mode": self.metric_mode,
            "output_dir": self.output_dir,
            "formats": list(self.formats),
        }

    def canonical_json(self) -> str:
        # output_dir and formats steer artifact placement, not results, so
        # they stay out of the hashed identity
        doc = self.to_dict()
        del doc["output_dir"]
        del doc["formats"]
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()
