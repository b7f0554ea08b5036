"""Versioned JSON serialization for every model kind.

Format 2 stores each tree as the preorder arrays ``Tree`` holds, with reals
as C99 hex float strings, so a save/load round trip reproduces the model
bit for bit. It is the only format read: a format-1 file, which nested
each tree's nodes, is refused for its version.
"""

from __future__ import annotations

import json
import os
from dataclasses import fields
from pathlib import Path

import numpy as np

from ..errors import DataError
from .baseline import BaselineModel
from .forest import ForestModel, ForestParams
from .gbt import GbtModel, GbtParams
from .tree import DecisionTreeModel, Tree, TreeHyperparams

FORMAT_NAME = "flowgate-model"
FORMAT_VERSION = 2

KIND_TREE = "decision_tree"
KIND_FOREST = "random_forest"
KIND_GBT = "gradient_boosting"
KIND_BASELINE = "majority_baseline"

AnyModel = DecisionTreeModel | ForestModel | GbtModel | BaselineModel


def _tree_arrays(tree: Tree) -> dict:
    """``tree`` as JSON arrays: the class counts of a gini tree or the leaf
    weights of a boosting tree, each under its own key, then the splits."""
    if tree.value.ndim == 2:
        payload = {"counts": tree.value.tolist()}
    else:
        payload = {"value": [w.hex() for w in tree.value.tolist()]}
    thresholds = [t.hex() for t in tree.threshold.tolist()]
    return payload | {"feature": tree.feature.tolist(), "threshold": thresholds}


def _int(value, where: str) -> int:
    """``value`` when it is a JSON integer: a float (2.0 too) or a boolean is
    refused, never truncated."""
    if type(value) is not int:
        raise DataError(f"{where} must be an integer, got {value!r}")
    return value


def _bool(value, where: str) -> bool:
    """``value`` when it is a JSON boolean."""
    if not isinstance(value, bool):
        raise DataError(f"{where} must be true or false, got {value!r}")
    return value


def _ints(values, where: str) -> list[int]:
    """``values`` as a list, each one a JSON integer (see ``_int``)."""
    return [_int(value, where) for value in values]


def _tree_from_dict(arrays: dict, key: str, n_features: int) -> Tree:
    """The tree of a format-2 array object, payload under ``key``: each split
    has a feature below n_features and a threshold, feature ids and class
    counts are JSON integers, every node counts at least one row and every
    leaf weight is finite, as in any fitted tree."""
    if key == "counts":
        counts = [_ints(row, "a class count") for row in arrays[key]]
        value = np.asarray(counts, dtype=np.int64)
    else:
        value = np.asarray([float.fromhex(w) for w in arrays[key]], dtype=np.float64)
    feature = _ints(arrays["feature"], "a tree feature")
    tree = Tree(value, feature, [float.fromhex(t) for t in arrays["threshold"]])
    foreign = tree.feature[(tree.feature < -1) | (tree.feature >= n_features)]
    if foreign.size:
        raise DataError(f"tree feature {foreign[0]} is not in [0, {n_features})")
    if np.isnan(tree.threshold[tree.feature >= 0]).any():
        raise DataError("a tree split has threshold nan")
    if key == "counts":
        if (tree.value < 0).any():
            raise DataError(f"a class count must be >= 0, got {tree.value.min()}")
        if (tree.value.sum(axis=1) == 0).any():
            raise DataError("a tree node has class counts that are all 0")
    elif not np.isfinite(tree.value).all():
        bad = tree.value[~np.isfinite(tree.value)][0]
        raise DataError(f"a leaf weight must be finite, got {bad}")
    return tree


def _check_class_count(n_classes: int, shapes) -> None:
    """Each class-count vector, base score vector and boosting round has n_classes entries."""
    for shape in shapes:
        if shape != (n_classes,):
            raise DataError(
                "a class-count vector, base score vector or boosting round has "
                f"shape {shape}, not ({n_classes},)"
            )


def _settings_to_dict(settings, cls: type) -> dict:
    """The values of ``settings`` for the fields of ``cls``, in field order;
    a field whose default is a float is stored as a hex string."""
    doc = {}
    for f in fields(cls):
        value = getattr(settings, f.name)
        doc[f.name] = float(value).hex() if isinstance(f.default, float) else value
    return doc


def _settings_from_dict(cls: type, doc: dict) -> dict:
    """The field values of ``cls`` stored in ``doc``: a hex string for a
    field whose default is a float, else a JSON integer (or null where the
    default is None). A key that is not a field of ``cls`` is refused."""
    unknown = sorted(set(doc) - {f.name for f in fields(cls)})
    if unknown:
        raise DataError(f"params has unknown key {unknown[0]!r}")
    settings = {}
    for f in fields(cls):
        value = doc[f.name]
        if isinstance(f.default, float):
            settings[f.name] = float.fromhex(value)
        else:
            nullable = f.default is None and value is None
            settings[f.name] = value if nullable else _int(value, f"params.{f.name}")
    return settings


def _document(model: AnyModel) -> dict:
    """The document ``save_model`` writes, each tree still a ``Tree``."""
    header = {"format": FORMAT_NAME, "version": FORMAT_VERSION}
    if isinstance(model, DecisionTreeModel):
        return header | {
            "kind": KIND_TREE,
            "n_classes": model.n_classes,
            "n_features": model.n_features,
            "params": _settings_to_dict(model.params, TreeHyperparams),
            "root": model.root,
        }
    if isinstance(model, ForestModel):
        # "params" holds the tree keys; the forest's own sit beside it and
        # n_trees is the length of "trees"
        return header | {
            "kind": KIND_FOREST,
            "n_classes": model.n_classes,
            "n_features": model.n_features,
            "features_per_split": model.params.features_per_split,
            "bootstrap": model.params.bootstrap,
            "seed": model.seed,
            "params": _settings_to_dict(model.params, TreeHyperparams),
            "trees": model.trees,
        }
    if isinstance(model, GbtModel):
        return header | {
            "kind": KIND_GBT,
            "n_classes": model.n_classes,
            "n_features": model.n_features,
            "params": _settings_to_dict(model.params, GbtParams),
            "base_score": [float(v).hex() for v in model.base_score],
            "trees": model.trees,
        }
    if isinstance(model, BaselineModel):
        return header | {
            "kind": KIND_BASELINE,
            "n_classes": model.n_classes,
            "majority_class": model.majority_class,
            "train_ratio": float(model.train_ratio).hex(),
        }
    raise DataError(f"cannot serialize object of type {type(model).__name__}")


def model_to_dict(model: AnyModel) -> dict:
    """The document ``save_model`` writes, as JSON values."""
    return json.loads(json.dumps(_document(model), default=_tree_arrays))


def model_from_dict(doc: dict) -> AnyModel:
    """The model a format-2 document describes; a malformed one
    raises DataError, KeyError (a missing key), TypeError, ValueError or
    OverflowError (an integer past int64)."""
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise DataError(f"not a {FORMAT_NAME} document")
    version = doc.get("version")
    if version != FORMAT_VERSION:
        raise DataError(f"unsupported model document version {version!r}")
    kind = doc.get("kind")
    if kind not in (KIND_TREE, KIND_FOREST, KIND_GBT, KIND_BASELINE):
        raise DataError(f"unknown model kind {kind!r}")
    n_classes = _int(doc["n_classes"], "n_classes")
    if kind == KIND_BASELINE:
        majority = _int(doc["majority_class"], "majority_class")
        if not 0 <= majority < n_classes:
            raise DataError(f"majority_class {majority} is not in [0, {n_classes})")
        train_ratio = float.fromhex(doc["train_ratio"])
        if not 0.0 <= train_ratio <= 1.0:  # nan too
            raise DataError(f"train_ratio {train_ratio!r} is not in [0, 1]")
        return BaselineModel(majority, train_ratio, n_classes)
    n_features = _int(doc["n_features"], "n_features")
    if kind == KIND_TREE:
        root = _tree_from_dict(doc["root"], "counts", n_features)
        _check_class_count(n_classes, [root.value.shape[1:]])
        return DecisionTreeModel(
            root=root,
            params=TreeHyperparams(**_settings_from_dict(TreeHyperparams, doc["params"])),
            n_classes=n_classes,
            n_features=n_features,
        )
    if kind == KIND_FOREST:
        trees = tuple(_tree_from_dict(t, "counts", n_features) for t in doc["trees"])
        _check_class_count(n_classes, [tree.value.shape[1:] for tree in trees])
        features_per_split = _int(doc["features_per_split"], "features_per_split")
        if features_per_split > n_features:  # ForestParams refuses one below 1
            raise DataError(
                f"features_per_split must be in [1, {n_features}], got {features_per_split}"
            )
        return ForestModel(
            trees=trees,
            params=ForestParams(
                **_settings_from_dict(TreeHyperparams, doc["params"]),
                n_trees=len(doc["trees"]),
                features_per_split=features_per_split,
                bootstrap=_bool(doc["bootstrap"], "bootstrap"),
            ),
            n_classes=n_classes,
            n_features=n_features,
            seed=_int(doc["seed"], "seed"),
        )
    params = GbtParams(**_settings_from_dict(GbtParams, doc["params"]))
    base = np.asarray([float.fromhex(v) for v in doc["base_score"]], dtype=np.float64)
    if not np.isfinite(base).all():
        raise DataError(f"base_score must be finite, got {base[~np.isfinite(base)][0]}")
    trees = tuple(
        tuple(_tree_from_dict(t, "value", n_features) for t in round_trees)
        for round_trees in doc["trees"]
    )
    if len(trees) != params.n_rounds:
        raise DataError(f"trees hold {len(trees)} rounds, not params.n_rounds {params.n_rounds}")
    _check_class_count(n_classes, [base.shape, *((len(r),) for r in trees)])
    return GbtModel(
        base_score=base,
        trees=trees,
        params=params,
        n_classes=n_classes,
        n_features=n_features,
    )


def save_model(model: AnyModel, path: str | Path) -> None:
    """Write ``model`` to ``path`` as an indented format-2 JSON document.

    The document is streamed, one tree's arrays at a time, into a temporary
    file beside ``path``, which then replaces ``path``, so a save that fails
    leaves no partial model file. A path that cannot be written (a
    directory, say) is a DataError naming it.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w", encoding="utf-8") as out:
            json.dump(_document(model), out, indent=2, default=_tree_arrays)
            out.write("\n")
        os.replace(tmp, path)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror}") from None
    finally:
        if tmp.is_file():
            tmp.unlink()


def load_model(path: str | Path) -> AnyModel:
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise DataError(f"missing model file: {path}") from None
    except OSError as exc:  # a directory, say
        raise DataError(f"cannot read model file {path}: {exc.strerror}") from None
    except ValueError as exc:  # undecodable bytes or invalid JSON
        raise DataError(f"{path}: invalid JSON: {exc}") from exc
    except RecursionError as exc:  # any value nested past the parser's limit
        raise DataError(f"{path}: a tree is nested too deeply for JSON") from exc
    try:
        return model_from_dict(doc)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    except KeyError as exc:
        raise DataError(f"{path}: missing key {exc.args[0]!r}") from None
    except (TypeError, ValueError, OverflowError) as exc:  # overflow: past int64
        raise DataError(f"{path}: bad value: {exc}") from None
