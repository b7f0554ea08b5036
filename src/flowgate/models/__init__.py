"""Tree-family classifiers built from scratch plus the majority baseline."""

from .baseline import BaselineModel, majority_baseline, predict_baseline
from .forest import ForestModel, ForestParams, fit_forest, predict_forest
from .gbt import GbtModel, GbtParams, fit_gbt, predict_gbt
from .serialize import load_model, model_from_dict, model_to_dict, save_model
from .tree import (
    DecisionTreeModel,
    SplitCache,
    Tree,
    TreeHyperparams,
    best_split,
    fit_tree,
    gini_impurity,
    predict_tree,
)

__all__ = [
    "BaselineModel",
    "DecisionTreeModel",
    "ForestModel",
    "ForestParams",
    "GbtModel",
    "GbtParams",
    "SplitCache",
    "Tree",
    "TreeHyperparams",
    "best_split",
    "fit_forest",
    "fit_gbt",
    "fit_tree",
    "gini_impurity",
    "load_model",
    "majority_baseline",
    "model_from_dict",
    "model_to_dict",
    "predict_baseline",
    "predict_forest",
    "predict_gbt",
    "predict_tree",
    "save_model",
]
