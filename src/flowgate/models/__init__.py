"""Tree-family classifiers built from scratch plus the majority baseline.

The package re-exports what other modules import through it; every other
name is imported from the module that defines it.
"""

from .baseline import majority_baseline
from .forest import ForestParams, fit_forest
from .gbt import GbtParams, fit_gbt
from .serialize import load_model, model_to_dict, save_model
from .tree import SplitCache, TreeHyperparams, fit_tree

__all__ = [
    "ForestParams",
    "GbtParams",
    "SplitCache",
    "TreeHyperparams",
    "fit_forest",
    "fit_gbt",
    "fit_tree",
    "load_model",
    "majority_baseline",
    "model_to_dict",
    "save_model",
]
