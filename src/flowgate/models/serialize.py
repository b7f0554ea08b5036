"""Versioned JSON serialization for every model kind.

Thresholds, leaf weights, and other learned reals are stored as C99 hex
float strings, so a save/load round trip reproduces the model bit for bit.
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
FORMAT_VERSION = 1

KIND_TREE = "decision_tree"
KIND_FOREST = "random_forest"
KIND_GBT = "gradient_boosting"
KIND_BASELINE = "majority_baseline"

AnyModel = DecisionTreeModel | ForestModel | GbtModel | BaselineModel


def _hex(value: float) -> str:
    return float(value).hex()


def _unhex(text: str) -> float:
    return float.fromhex(text)


# A node's payload is stored under its own key: the class counts of a gini
# tree as integers, the leaf weight of a boosting tree as a hex float.
_COUNTS = ("counts", lambda v: [int(c) for c in v], lambda d: np.asarray(d, dtype=np.int64))
_WEIGHT = ("value", _hex, _unhex)


def _tree_to_dict(tree: Tree, payload: tuple, node: int = 0) -> dict:
    key, write, _ = payload
    doc: dict = {key: write(tree.value[node])}
    if tree.feature[node] >= 0:
        doc["feature"] = int(tree.feature[node])
        doc["threshold"] = _hex(tree.threshold[node])
        doc["left"] = _tree_to_dict(tree, payload, node + 1)
        doc["right"] = _tree_to_dict(tree, payload, int(tree.right[node]))
    return doc


def _tree_from_dict(doc: dict, payload: tuple, n_features: int) -> Tree:
    key, _, read = payload
    nodes = []
    stack = [doc]
    while stack:  # preorder, left child first
        node = stack.pop()
        if "feature" in node:
            feature = int(node["feature"])
            if not 0 <= feature < n_features:
                raise DataError(f"tree feature {feature} is not in [0, {n_features})")
            nodes.append((read(node[key]), feature, _unhex(node["threshold"])))
            stack += [node["right"], node["left"]]
        else:
            nodes.append((read(node[key]), -1, np.nan))
    values, features, thresholds = zip(*nodes)
    return Tree(np.asarray(values), features, thresholds)


def _check_class_count(n_classes: int, shapes) -> None:
    """Every class-count vector, base score vector and boosting round of a
    model holds one entry per class."""
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
        doc[f.name] = _hex(value) if isinstance(f.default, float) else value
    return doc


def _settings_from_dict(cls: type, doc: dict) -> dict:
    """The field values of ``cls`` stored in ``doc``. Other keys are ignored:
    older v1 files also carry "criterion" and "seed", which growth never read."""
    return {
        f.name: _unhex(doc[f.name]) if isinstance(f.default, float) else doc[f.name]
        for f in fields(cls)
    }


def model_to_dict(model: AnyModel) -> dict:
    header = {"format": FORMAT_NAME, "version": FORMAT_VERSION}
    if isinstance(model, DecisionTreeModel):
        return header | {
            "kind": KIND_TREE,
            "n_classes": model.n_classes,
            "n_features": model.n_features,
            "params": _settings_to_dict(model.params, TreeHyperparams),
            "root": _tree_to_dict(model.root, _COUNTS),
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
            "trees": [_tree_to_dict(t, _COUNTS) for t in model.trees],
        }
    if isinstance(model, GbtModel):
        return header | {
            "kind": KIND_GBT,
            "n_classes": model.n_classes,
            "n_features": model.n_features,
            "params": _settings_to_dict(model.params, GbtParams),
            "base_score": [_hex(v) for v in model.base_score],
            "trees": [
                [_tree_to_dict(t, _WEIGHT) for t in round_trees]
                for round_trees in model.trees
            ],
        }
    if isinstance(model, BaselineModel):
        return header | {
            "kind": KIND_BASELINE,
            "n_classes": model.n_classes,
            "majority_class": model.majority_class,
            "train_ratio": _hex(model.train_ratio),
        }
    raise DataError(f"cannot serialize object of type {type(model).__name__}")


def model_from_dict(doc: dict) -> AnyModel:
    """The model a document describes; a malformed document raises DataError,
    KeyError (a missing key), or TypeError or ValueError (a bad value)."""
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise DataError(f"not a {FORMAT_NAME} document")
    if doc.get("version") != FORMAT_VERSION:
        raise DataError(f"unsupported model document version {doc.get('version')!r}")
    kind = doc.get("kind")
    if kind not in (KIND_TREE, KIND_FOREST, KIND_GBT, KIND_BASELINE):
        raise DataError(f"unknown model kind {kind!r}")
    n_classes = int(doc["n_classes"])
    if kind == KIND_BASELINE:
        return BaselineModel(
            majority_class=int(doc["majority_class"]),
            train_ratio=_unhex(doc["train_ratio"]),
            n_classes=n_classes,
        )
    n_features = int(doc["n_features"])
    if kind == KIND_TREE:
        root = _tree_from_dict(doc["root"], _COUNTS, n_features)
        _check_class_count(n_classes, [root.value.shape[1:]])
        return DecisionTreeModel(
            root=root,
            params=TreeHyperparams(**_settings_from_dict(TreeHyperparams, doc["params"])),
            n_classes=n_classes,
            n_features=n_features,
        )
    if kind == KIND_FOREST:
        trees = tuple(_tree_from_dict(t, _COUNTS, n_features) for t in doc["trees"])
        _check_class_count(n_classes, [tree.value.shape[1:] for tree in trees])
        return ForestModel(
            trees=trees,
            params=ForestParams(
                **_settings_from_dict(TreeHyperparams, doc["params"]),
                n_trees=len(doc["trees"]),
                features_per_split=int(doc["features_per_split"]),
                bootstrap=bool(doc["bootstrap"]),
            ),
            n_classes=n_classes,
            n_features=n_features,
            seed=int(doc["seed"]),
        )
    params = GbtParams(**_settings_from_dict(GbtParams, doc["params"]))
    base = np.asarray([_unhex(v) for v in doc["base_score"]], dtype=np.float64)
    trees = tuple(
        tuple(_tree_from_dict(t, _WEIGHT, n_features) for t in round_trees)
        for round_trees in doc["trees"]
    )
    _check_class_count(n_classes, [base.shape, *((len(r),) for r in trees)])
    return GbtModel(
        base_score=base,
        trees=trees,
        params=params,
        n_classes=n_classes,
        n_features=n_features,
    )


def save_model(model: AnyModel, path: str | Path) -> None:
    """Write ``model`` to ``path`` as an indented JSON document.

    The document is streamed into a temporary file beside ``path``, which
    then replaces ``path``, so a save that fails leaves no partial model
    file. A tree nested too deeply for JSON (near a thousand levels) raises
    DataError.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w", encoding="utf-8") as out:
            json.dump(model_to_dict(model), out, indent=2)
            out.write("\n")
        os.replace(tmp, path)
    except RecursionError as exc:
        raise DataError(f"cannot save {path}: a tree is nested too deeply for JSON") from exc
    finally:
        tmp.unlink(missing_ok=True)


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
    except RecursionError as exc:
        raise DataError(f"{path}: a tree is nested too deeply for JSON") from exc
    try:
        return model_from_dict(doc)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    except KeyError as exc:
        raise DataError(f"{path}: missing key {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path}: bad value: {exc}") from None
