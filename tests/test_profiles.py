"""Built-in dataset profiles: class vocabularies, counts, round-trips."""

import json

import pytest

from flowgate.errors import ConfigError
from flowgate.profiles import (
    BUILTIN_CLASS_COUNTS,
    DatasetProfile,
    TimestampMerge,
    builtin_class_ratios,
    builtin_profile,
    resolve_profile,
    settings_dict,
)

CSE_CLASSES = (
    "Benign",
    "DDoS",
    "DoS",
    "Brute Force",
    "Botnet",
    "Infiltration",
    "Web attacks",
)


def test_cse2018_class_order_and_counts():
    profile = builtin_profile("cse2018")
    assert profile.class_names == CSE_CLASSES
    counts = BUILTIN_CLASS_COUNTS["cse2018"]
    assert counts["Benign"] == 13_484_708
    assert counts["Web attacks"] == 987
    assert sum(counts.values()) == 16_233_002


def test_litnet2020_counts():
    counts = BUILTIN_CLASS_COUNTS["litnet2020"]
    assert len(counts) == 13
    assert counts["none"] == 36_423_860
    assert counts["UDP-flood"] == 93_583
    assert counts["HTTP-flood"] == 22_959
    assert counts["Packet fragmentation attack"] == 477
    assert sum(counts.values()) == 39_603_674


def test_ratios_sum_to_one():
    for name in ("cse2018", "litnet2020"):
        ratios = builtin_class_ratios(name)
        assert sum(ratios.values()) == pytest.approx(1.0, abs=1e-12)
        assert all(r > 0 for r in ratios.values())


def test_cse2018_majority_share():
    ratios = builtin_class_ratios("cse2018")
    assert ratios["Benign"] == pytest.approx(13_484_708 / 16_233_002, abs=0.0)


def test_litnet_merges_twelve_component_columns():
    merge = builtin_profile("litnet2020").timestamp_merge
    assert merge is not None
    assert merge.start_columns == (
        "ts_year", "ts_month", "ts_day", "ts_hour", "ts_minute", "ts_second",
    )
    assert len(merge.end_columns) == 6


def test_cse2018_drops_raw_timestamp_and_rate_columns():
    profile = builtin_profile("cse2018")
    assert "Timestamp" in profile.drop_columns
    assert "Flow Byts/s" in profile.drop_columns
    assert "Flow Pkts/s" in profile.drop_columns
    assert profile.timestamp_merge is None


def test_unknown_profile_name():
    with pytest.raises(ConfigError):
        builtin_profile("nope")
    with pytest.raises(ConfigError):
        builtin_class_ratios("nope")


def test_profile_dict_round_trip():
    for name in ("cse2018", "litnet2020"):
        profile = builtin_profile(name)
        assert DatasetProfile.from_dict(settings_dict(profile)) == profile


def test_profile_document_missing_key():
    with pytest.raises(ConfigError):
        DatasetProfile.from_dict({"name": "x", "label_column": "y"})


def test_profile_document_missing_name_names_the_key():
    with pytest.raises(ConfigError, match="profile is missing required key 'name'"):
        DatasetProfile.from_dict({"label_column": "y", "class_names": ["a"]})


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"class_names": ()}, "has no class_names"),
        ({"class_names": ("a", "b", "a", "b")}, r"repeats class names \['a', 'b'\]"),
        ({"drop_columns": ("id", "y")}, "drops its label column 'y'"),
    ],
)
def test_a_profile_checks_its_own_contents(fields, message):
    with pytest.raises(ConfigError, match=message):
        DatasetProfile(**{"name": "x", "label_column": "y", "class_names": ("a",), **fields})
    doc = {"name": "x", "label_column": "y", "class_names": ["a"]}
    doc.update((key, list(value)) for key, value in fields.items())
    with pytest.raises(ConfigError, match=message):
        DatasetProfile.from_dict(doc)


def test_timestamp_merge_needs_six_per_side():
    with pytest.raises(ConfigError):
        TimestampMerge(("a", "b"), ("c", "d"))


def test_resolve_profile_by_name_file_or_document(tmp_path):
    assert resolve_profile("cse2018") is builtin_profile("cse2018")
    doc = {"name": "x", "label_column": "y", "class_names": ["a"]}
    (tmp_path / "p.json").write_text(json.dumps(doc), encoding="utf-8")
    assert resolve_profile("p.json", tmp_path) == DatasetProfile.from_dict(doc)
    assert resolve_profile(str(tmp_path / "p.json")).name == "x"
    assert resolve_profile(doc).name == "x"


@pytest.mark.parametrize(
    "text, message",
    [
        (None, "neither a builtin name"),
        ("{", "not valid JSON"),
        ("[1, 2]", "must be a JSON object"),
        ('"cse2018"', "must be a JSON object"),
        ('{"name": "x", "label_column": "y", "class_names": 5}', "list of names"),
        ('{"name": "x", "label_column": "y", "class_names": ["a"], '
         '"drop_columns": "Timestamp"}', "list of names"),
        ('{"name": "x", "label_column": "y", "class_names": ["a"], '
         '"timestamp_merge": [1]}', "profile.timestamp_merge must be a JSON object"),
    ],
)
def test_resolve_profile_rejects_bad_files(tmp_path, text, message):
    if text is not None:
        (tmp_path / "p.json").write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError, match=message):
        resolve_profile("p.json", tmp_path)


def test_resolve_profile_rejects_documents_that_are_not_objects():
    for value in ([1, 2], 5, None):
        with pytest.raises(ConfigError, match="must be a JSON object"):
            resolve_profile(value)


_MINIMAL = {"name": "x", "label_column": "y", "class_names": ["a"]}
_MERGE = {"start_columns": list("abcdef"), "end_columns": list("ghijkl")}


@pytest.mark.parametrize(
    "doc, message",
    [
        ({**_MINIMAL, "drop_colums": ["x"]}, r"has unknown keys \['drop_colums'\]"),
        (
            {**_MINIMAL, "timestamp_merge": {**_MERGE, "start_column": []}},
            r"timestamp_merge has unknown keys \['start_column'\]",
        ),
        ({**_MINIMAL, "name": 5}, "profile.name must be a string"),
        ({**_MINIMAL, "label_column": 1}, "profile.label_column must be a string"),
        ({**_MINIMAL, "class_names": ["a", 2]}, "profile.class_names item must be a string"),
        ({**_MINIMAL, "drop_columns": [None]}, "profile.drop_columns item must be a string"),
        (
            {**_MINIMAL, "timestamp_merge": {**_MERGE, "end_columns": list(range(6))}},
            "profile.timestamp_merge.end_columns item must be a string",
        ),
    ],
)
def test_profile_documents_reject_unknown_keys_and_non_strings(doc, message):
    # a typo such as drop_colums would otherwise drop nothing
    with pytest.raises(ConfigError, match=message):
        DatasetProfile.from_dict(doc)
    assert DatasetProfile.from_dict({**_MINIMAL, "timestamp_merge": _MERGE}).name == "x"
