"""Eight learner families under one fit/predict contract.

Regressors expose ``model.predict(X) -> ndarray``; classifiers expose
``model.predict_confidence(X) -> (n, n_classes) ndarray`` of vote or
probability fractions that sum to one per row.  Build either through
:func:`fit_regressor` / :func:`fit_classifier` with a
:class:`~locbench.learners.base.LearnerSpec`, or call the per-family
fit functions directly.
"""

from __future__ import annotations

import numpy as np

from ..data import ValidationError
from .base import (
    CLASSIFIER_FAMILIES,
    FAMILIES,
    FeatureMatrix,
    LearnerSpec,
    PredictionWithConfidence,
    Standardizer,
    TrainingDivergedError,
    prediction_from_scores,
    standardize,
)
from .boosting import GbtModel, fit_gbt, predict_gbt
from .forest import (
    ForestModel,
    ImportanceReport,
    default_mtry,
    feature_importance,
    fit_forest,
    predict_forest,
)
from .linear import LinearModel, fit_ols, predict_linear
from .mlp import MlpModel, MlpNetwork, fit_mlp
from .neighbors import KnnModel, fit_knn, predict_knn
from .svr import SvrModel, fit_svr, predict_svr
from .tree import Tree, eval_tree, fit_tree, tree_apply, tree_depth, tree_predict

__all__ = [
    "CLASSIFIER_FAMILIES",
    "FAMILIES",
    "FeatureMatrix",
    "ForestModel",
    "GbtModel",
    "ImportanceReport",
    "KnnModel",
    "LearnerSpec",
    "LinearModel",
    "MlpModel",
    "MlpNetwork",
    "PredictionWithConfidence",
    "Standardizer",
    "SvrModel",
    "TrainingDivergedError",
    "Tree",
    "default_mtry",
    "eval_tree",
    "feature_importance",
    "fit_classifier",
    "fit_forest",
    "fit_gbt",
    "fit_knn",
    "fit_mlp",
    "fit_ols",
    "fit_regressor",
    "fit_svr",
    "fit_tree",
    "prediction_from_scores",
    "predict_forest",
    "predict_gbt",
    "predict_knn",
    "predict_linear",
    "predict_svr",
    "standardize",
    "tree_apply",
    "tree_depth",
    "tree_predict",
]


def fit_regressor(spec: LearnerSpec, X: np.ndarray, y: np.ndarray):
    """Train one numeric-target model of the requested family."""
    p = spec.resolved()
    family = spec.family
    if family == "knn":
        return fit_knn(X, y, k=p["k"], task="regression")
    if family == "decision_tree":
        return fit_tree(X, y, task="regression", max_depth=p["depth"], min_leaf=p["min_leaf"])
    if family == "random_forest":
        return fit_forest(
            X,
            y,
            task="regression",
            n_trees=p["trees"],
            max_depth=p["depth"],
            min_leaf=p["min_leaf"],
            seed=spec.seed,
        )
    if family == "gbt":
        return fit_gbt(
            X,
            y,
            n_trees=p["trees"],
            max_depth=p["depth"],
            rate=p["rate"],
            min_leaf=p["min_leaf"],
        )
    if family == "linear_regression":
        return fit_ols(X, y)
    if family == "svr":
        return fit_svr(
            X,
            y,
            C=p["c"],
            epsilon=p["epsilon"],
            kernel=p["kernel"],
            gamma=p["gamma"],
            max_iter=p["iters"],
        )
    if family in ("ann", "deep_learning"):
        return fit_mlp(
            X,
            y,
            hidden=tuple(p["layers"]),
            activation=p["activation"],
            epochs=p["epochs"],
            rate=p["rate"],
            batch_size=p["batch"],
            seed=spec.seed,
            task="regression",
        )
    raise ValidationError(f"unknown learner family {family!r}")


def fit_classifier(spec: LearnerSpec, X: np.ndarray, y: np.ndarray, n_classes: int):
    """Train a zone classifier; ``y`` holds integer class indices."""
    if spec.family not in CLASSIFIER_FAMILIES:
        raise ValidationError(
            f"{spec.family} is regression-only; classification families are "
            f"{', '.join(CLASSIFIER_FAMILIES)}"
        )
    p = spec.resolved()
    family = spec.family
    if family == "knn":
        return fit_knn(X, y, k=p["k"], task="classification", n_classes=n_classes)
    if family == "decision_tree":
        return fit_tree(
            X,
            y,
            task="classification",
            max_depth=p["depth"],
            min_leaf=p["min_leaf"],
            n_classes=n_classes,
        )
    if family == "random_forest":
        return fit_forest(
            X,
            y,
            task="classification",
            n_trees=p["trees"],
            max_depth=p["depth"],
            min_leaf=p["min_leaf"],
            seed=spec.seed,
            n_classes=n_classes,
        )
    return fit_mlp(
        X,
        y,
        hidden=tuple(p["layers"]),
        activation=p["activation"],
        epochs=p["epochs"],
        rate=p["rate"],
        batch_size=p["batch"],
        seed=spec.seed,
        task="classification",
        n_classes=n_classes,
    )
