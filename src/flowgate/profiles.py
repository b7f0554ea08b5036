"""Declarative dataset profiles.

A profile tells the ingestion pipeline everything dataset-specific: which
columns to drop outright, which timestamp component columns to merge into
epoch-seconds columns, which column carries the class label, and the class
vocabulary. Two profiles ship built in, covering the two public flow-record
benchmarks this package targets; both are plain documents, so variant column
spellings can be handled with an inline or file-based profile instead.

Profiles and every config block are settings classes: frozen dataclasses
read from JSON by ``read_settings`` and written back by ``settings_dict``,
both driven by the class's fields.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields, is_dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

from .errors import ConfigError, DataError

# Component order is fixed: year, month, day, hour, minute, second.
TIMESTAMP_COMPONENTS = ("year", "month", "day", "hour", "minute", "second")


@dataclass(frozen=True)
class TimestampMerge:
    """Six start-component and six end-component column names to fold into
    'stimestamp' / 'etimestamp' epoch-seconds columns."""

    start_columns: tuple[str, ...]
    end_columns: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.start_columns) != 6 or len(self.end_columns) != 6:
            raise ConfigError("timestamp merge needs 6 start and 6 end component columns")


def as_list(value: Any, where: str, items: str) -> list:
    """``value`` when it is a JSON array; ``items`` names what it lists.

    Anything else fails, a bare string above all: iterated, it would be
    taken as a list of its characters.
    """
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{where} must be a list of {items}, got {value!r}")
    return list(value)


def as_str(value: Any, where: str) -> str:
    """``value`` when it is a JSON string; nothing is converted."""
    if not isinstance(value, str):
        raise ConfigError(f"{where} must be a string, got {value!r}")
    return value


def as_names(value: Any, where: str, items: str = "names") -> tuple[str, ...]:
    """The strings of ``value`` when it is a JSON array of strings."""
    return tuple(as_str(v, f"{where} item") for v in as_list(value, where, items))


def as_object(value: Any, where: str, known: Iterable[str], keys: str = "keys") -> Mapping:
    """``value`` when it is a JSON object whose keys are all ``known``;
    ``keys`` names them in the message."""
    if not isinstance(value, Mapping):
        raise ConfigError(f"{where} must be a JSON object, got {value!r}")
    unknown = sorted(set(value) - set(known))
    if unknown:
        raise ConfigError(f"{where} has unknown {keys} {unknown}")
    return value


def as_bool(value: Any, where: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{where} must be true or false, got {value!r}")
    return value


def as_int(value: Any, where: str) -> int:
    # bools are ints in Python; reject them so "true" seeds fail loudly
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return value


def as_number(value: Any, where: str) -> int | float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    return value


def require(doc: Mapping, key: str, where: str) -> Any:
    if key not in doc:
        raise ConfigError(f"{where} is missing required key {key!r}")
    return doc[key]


# the reader of each field annotation a settings class uses; a reader checks
# the JSON type and converts nothing (a converted value would change the
# config hash) but a list, which becomes a tuple, and a nested object, which
# becomes its settings class
_READERS: dict[str, Callable[[Any, str], Any]] = {
    "bool": as_bool,
    "int": as_int,
    "float": as_number,
    "str": as_str,
    "tuple[str, ...]": as_names,
    "tuple[float, ...]": lambda value, where: tuple(
        as_number(v, f"{where} item") for v in as_list(value, where, "numbers")
    ),
    "TimestampMerge": lambda value, where: read_settings(TimestampMerge, value, where),
}


def read_settings(cls: type, doc: Any, where: str, keys: str = "keys") -> Any:
    """Build the settings class ``cls`` from the document ``doc``.

    The document must be an object whose keys are fields of ``cls``, holding
    every field without a default, and whose values have the JSON types of
    the fields' annotations (``X | None`` admits null too). A range check
    that fails in ``cls`` is a configuration error.
    """
    settings = fields(cls)
    as_object(doc, where, (f.name for f in settings), keys)
    values = {}
    for f in settings:
        if f.default is MISSING:
            require(doc, f.name, where)
        if f.name in doc:
            value, annotation = doc[f.name], f.type.removesuffix(" | None")
            if value is not None or annotation == f.type:  # null where optional
                value = _READERS[annotation](value, f"{where}.{f.name}")
            values[f.name] = value
    try:
        return cls(**values)
    except DataError as exc:
        raise ConfigError(f"{where} settings are invalid: {exc}") from None


def settings_dict(settings: Any) -> dict:
    """The JSON document of a dataclass (settings, a ledger, a tuning
    outcome), as ``read_settings`` reads settings: its fields in field
    order, tuples as lists and nested dataclasses as objects; a field
    holding None is left out."""
    doc = {}
    for f in fields(settings):
        value = getattr(settings, f.name)
        if value is not None:
            doc[f.name] = _json_value(value)
    return doc


def _json_value(value: Any) -> Any:
    if isinstance(value, tuple):
        return [_json_value(v) for v in value]
    return settings_dict(value) if is_dataclass(value) else value


@dataclass(frozen=True)
class DatasetProfile:
    """What the pipeline needs to know of one dataset; a profile that names
    no classes, repeats one or drops its own label column is refused."""

    name: str
    label_column: str
    class_names: tuple[str, ...]
    drop_columns: tuple[str, ...] = ()
    zero_columns_expected: tuple[str, ...] = ()
    timestamp_merge: TimestampMerge | None = None

    def __post_init__(self) -> None:
        if not self.class_names:
            raise ConfigError(f"profile {self.name!r} has no class_names")
        repeated = sorted({c for c in self.class_names if self.class_names.count(c) > 1})
        if repeated:
            raise ConfigError(f"profile {self.name!r} repeats class names {repeated}")
        if self.label_column in self.drop_columns:
            raise ConfigError(
                f"profile {self.name!r} drops its label column {self.label_column!r}"
            )

    @classmethod
    def from_dict(cls, doc: Any) -> "DatasetProfile":
        return read_settings(cls, doc, "profile")


# -- built-in profiles ------------------------------------------------------

# 2018 enterprise flow capture: 7 consolidated classes. The timestamp column
# is dropped to avoid learning collection order; the two rate columns carry
# divide-by-zero infinities in the wild and are dropped for parity with the
# row-level invalid filter.
CSE2018_CLASS_COUNTS: dict[str, int] = {
    "Benign": 13_484_708,
    "DDoS": 1_263_933,
    "DoS": 654_300,
    "Brute Force": 380_949,
    "Botnet": 286_191,
    "Infiltration": 161_934,
    "Web attacks": 987,
}

CSE2018_PROFILE = DatasetProfile(
    name="cse2018",
    label_column="Label",
    class_names=tuple(CSE2018_CLASS_COUNTS),
    drop_columns=("Timestamp", "Flow Byts/s", "Flow Pkts/s"),
    zero_columns_expected=(
        "Bwd PSH Flags",
        "Bwd URG Flags",
        "Fwd Byts/b Avg",
        "Fwd Pkts/b Avg",
        "Fwd Blk Rate Avg",
        "Bwd Byts/b Avg",
        "Bwd Pkts/b Avg",
        "Bwd Blk Rate Avg",
    ),
)

# 2020 academic-network flow capture: 13 classes, start/end timestamps stored
# as six calendar component columns each.
LITNET2020_CLASS_COUNTS: dict[str, int] = {
    "none": 36_423_860,
    "Smurf": 118_958,
    "ICMP-flood": 23_256,
    "UDP-flood": 93_583,
    "TCP SYN-flood": 1_580_016,
    "HTTP-flood": 22_959,
    "LAND attack": 52_417,
    "Blaster Worm": 24_291,
    "Code Red Worm": 1_255_702,
    "Spam bot's detection": 747,
    "Reaper Worm": 1_176,
    "Scanning/Spread": 6_232,
    "Packet fragmentation attack": 477,
}

_LITNET_ZERO_VARIANCE = (
    "fwd",
    "opkt",
    "obyt",
    "smk",
    "dmk",
    "dtos",
    "_dir",
    "nh",
    "nhb",
    "svln",
    "dvl",
    "ismc",
    "odmc",
    "idmc",
    "osmc",
    "mpls1",
    "mpls2",
    "mpls3",
    "mpls4",
    "mpls5",
    "mpls6",
    "mpls7",
    "mpls8",
    "mpls9",
    "mpls10",
    "cl",
    "sl",
    "al",
    "ra",
    "eng",
    "tr",
)

LITNET2020_PROFILE = DatasetProfile(
    name="litnet2020",
    label_column="attack_t",
    class_names=tuple(LITNET2020_CLASS_COUNTS),
    drop_columns=("ID", "attack_a"),
    zero_columns_expected=_LITNET_ZERO_VARIANCE,
    timestamp_merge=TimestampMerge(
        start_columns=tuple(f"ts_{c}" for c in TIMESTAMP_COMPONENTS),
        end_columns=tuple(f"te_{c}" for c in TIMESTAMP_COMPONENTS),
    ),
)

BUILTIN_PROFILES: dict[str, DatasetProfile] = {
    CSE2018_PROFILE.name: CSE2018_PROFILE,
    LITNET2020_PROFILE.name: LITNET2020_PROFILE,
}

BUILTIN_CLASS_COUNTS: dict[str, dict[str, int]] = {
    CSE2018_PROFILE.name: CSE2018_CLASS_COUNTS,
    LITNET2020_PROFILE.name: LITNET2020_CLASS_COUNTS,
}


def builtin_profile(name: str) -> DatasetProfile:
    try:
        return BUILTIN_PROFILES[name]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_PROFILES))
        raise ConfigError(f"unknown profile {name!r} (built in: {known})") from None


def resolve_profile(value: Any, base_dir: Path = Path(".")) -> DatasetProfile:
    """A builtin profile name, a JSON profile file (relative paths resolve
    against ``base_dir``) or an inline profile document."""
    if not isinstance(value, str):
        return DatasetProfile.from_dict(value)
    if value in BUILTIN_PROFILES:
        return BUILTIN_PROFILES[value]
    path = base_dir / value
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except OSError:
        raise ConfigError(
            f"profile {value!r} is neither a builtin name ({sorted(BUILTIN_PROFILES)}) "
            "nor a readable JSON file"
        ) from None
    except ValueError as exc:  # undecodable bytes or invalid JSON
        raise ConfigError(f"profile file {path} is not valid JSON: {exc}") from None
    return DatasetProfile.from_dict(doc)


def builtin_class_ratios(name: str) -> dict[str, float]:
    """Class ratios derived from the published per-class record counts."""
    counts = BUILTIN_CLASS_COUNTS.get(name)
    if counts is None:
        known = ", ".join(sorted(BUILTIN_CLASS_COUNTS))
        raise ConfigError(f"unknown profile {name!r} (built in: {known})")
    total = sum(counts.values())
    return {cls: c / total for cls, c in counts.items()}
