"""Experiment configuration: parsing, validation, canonical hashing.

A run is described by one JSON document. The document is validated into an
ExperimentConfig up front so a bad field fails before any work starts, and
the canonical re-serialization is hashed into the run manifest so two runs
can be compared by configuration identity.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from .errors import ConfigError, DataError
from .models import ForestParams, GbtParams, TreeHyperparams
from .prep import FIT_FULL_DATASET, PrepOptions
from .profiles import (
    BUILTIN_PROFILES,
    DatasetProfile,
    as_int,
    as_list,
    as_names,
    as_object,
    as_str,
    read_settings,
    require,
    resolve_profile,
    settings_dict,
)
from .swarm import EpsoConfig
from .synth import SynthSpec, hazard_rows

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

_FORMATS = ("csv", "md", "json")


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
            read_settings(settings, self.params_dict(), self.type, "hyperparameters")
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
            kind = as_str(require(doc, "type", where), f"{where}.type")
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
class SyntheticDataset:
    """The rows of a seeded generator: ``n_rows`` rows of a builtin
    profile's class mix or of the ``class_names``/``class_ratios`` pair.

    The generator's spec is built here, so its range checks run when the
    config loads.
    """

    n_rows: int
    profile: str | None = None
    class_names: tuple[str, ...] | None = None
    class_ratios: tuple[float, ...] | None = None
    n_features: int = 6
    cluster_separation: float = 8.0

    def __post_init__(self) -> None:
        if (self.class_names is None) != (self.class_ratios is None):
            raise ConfigError("class_names and class_ratios must be given together")
        if (self.profile is None) == (self.class_names is None):
            raise ConfigError(
                "synthetic dataset needs either 'profile' or class_names/class_ratios"
            )
        self.spec(0)

    def spec(self, seed: int) -> SynthSpec:
        """The generator's spec under ``seed``."""
        shape = {
            "n_features": self.n_features,
            "cluster_separation": self.cluster_separation,
            "seed": seed,
        }
        if self.profile is not None:
            return SynthSpec.from_profile_name(self.profile, self.n_rows, **shape)
        return SynthSpec(self.n_rows, self.class_names, self.class_ratios, **shape)

    def to_dict(self) -> dict:
        return {"kind": "synthetic", **settings_dict(self)}


@dataclass(frozen=True)
class CsvDataset:
    """The rows of a CSV file, read with ``profile``."""

    path: str
    profile: DatasetProfile

    def to_dict(self) -> dict:
        # a builtin is echoed by name, any other profile (even a document
        # equal to a builtin) as its document
        builtin = BUILTIN_PROFILES.get(self.profile.name) is self.profile
        profile = self.profile.name if builtin else settings_dict(self.profile)
        return {"kind": "csv", "path": self.path, "profile": profile}


def _read_dataset(doc: Any, base_dir: Path) -> SyntheticDataset | CsvDataset:
    """The dataset block, read by its ``kind``; a relative path or profile
    file resolves against ``base_dir``."""
    if not isinstance(doc, Mapping):
        raise ConfigError(f"dataset must be a JSON object, got {doc!r}")
    kind = as_str(require(doc, "kind", "dataset"), "dataset.kind")
    block = {k: v for k, v in doc.items() if k != "kind"}
    if kind == "synthetic":
        return read_settings(SyntheticDataset, block, "dataset")
    if kind == "csv":
        as_object(block, "dataset", ("path", "profile"))
        profile = resolve_profile(require(block, "profile", "dataset"), base_dir)
        path = as_str(require(block, "path", "dataset"), "dataset.path")
        return CsvDataset(str(base_dir / path), profile)
    raise ConfigError(f"dataset.kind must be one of ['synthetic', 'csv'], got {kind!r}")


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
class PreprocessBlock:
    """The preprocess block's keys; ``ExperimentConfig`` holds them as its
    ``split_ratio`` and ``fit_scope`` and checks their ranges."""

    split_ratio: float = 0.8
    fit_scope: str = FIT_FULL_DATASET


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
    dataset: SyntheticDataset | CsvDataset
    models: tuple[ModelSpec, ...]
    corruption: CorruptionConfig = CorruptionConfig()
    split_ratio: float = PreprocessBlock.split_ratio
    fit_scope: str = PreprocessBlock.fit_scope
    tuning: TuningConfig = TuningConfig()
    metric_mode: str = "weighted"
    output_dir: str = "out"
    formats: tuple[str, ...] = ("csv", "md", "json")

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if isinstance(self.dataset, CsvDataset) and not self.corruption.is_noop:
            raise ConfigError("corruption is only supported for synthetic datasets")
        if isinstance(self.dataset, SyntheticDataset):
            rates = self.corruption
            try:
                hazard_rows(self.dataset.n_rows, rates.dup_rate, rates.nan_rate, rates.inf_rate)
            except DataError as exc:
                raise ConfigError(f"corruption settings are invalid: {exc}") from None
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
        seed = as_int(require(doc, "seed", "config"), "seed")
        dataset = _read_dataset(require(doc, "dataset", "config"), base)
        models = tuple(
            ModelSpec.from_value(v, f"models[{i}]")
            for i, v in enumerate(as_list(doc.get("models", []), "models", "model specs"))
        )
        corruption = read_settings(CorruptionConfig, doc.get("corruption", {}), "corruption")
        prep = read_settings(PreprocessBlock, doc.get("preprocess", {}), "preprocess")
        return cls(
            seed=seed,
            dataset=dataset,
            models=models,
            corruption=corruption,
            split_ratio=prep.split_ratio,
            fit_scope=prep.fit_scope,
            tuning=read_settings(TuningConfig, doc.get("tuning", {}), "tuning"),
            metric_mode=as_str(doc.get("metric_mode", "weighted"), "metric_mode"),
            output_dir=as_str(doc.get("output_dir", "out"), "output_dir"),
            formats=as_names(doc.get("formats", list(_FORMATS)), "formats", "format names"),
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        path = Path(path)
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except OSError as exc:  # a directory, say
            raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
        except ValueError as exc:  # undecodable bytes or invalid JSON
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
        return cls.from_dict(doc, base_dir=path.parent)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "dataset": self.dataset.to_dict(),
            "models": [m.to_value() for m in self.models],
            "corruption": settings_dict(self.corruption),
            "preprocess": settings_dict(PreprocessBlock(self.split_ratio, self.fit_scope)),
            "tuning": settings_dict(self.tuning),
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
