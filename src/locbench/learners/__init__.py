"""Eight learner families under one fit/predict contract.

Regressors expose ``model.predict(X) -> ndarray``; classifiers expose
``model.predict_confidence(X) -> (n, n_classes) ndarray`` of vote or
probability fractions that sum to one per row.  Build either through
:func:`fit_regressor` / :func:`fit_classifier` with a :class:`LearnerSpec`,
or call the per-family fit functions directly; each checks its training
set with :func:`.base.training_data` first.

Every fact about a family lives in two tables: :data:`PARAMS` (each
hyperparameter's text form, valid range and flag help) and
:data:`REGISTRY` (each family's label, fit function, defaults and the
context that function takes).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from ..data import ValidationError
from .base import (
    Standardizer,
    TrainingDivergedError,
    prediction_from_scores,
    standardize,
)
from .boosting import GbtModel, fit_gbt
from .forest import (
    ForestModel,
    ImportanceReport,
    default_mtry,
    feature_importance,
    fit_forest,
    predict_forest,
)
from .linear import LinearModel, fit_ols
from .mlp import MlpModel, MlpNetwork, fit_mlp
from .neighbors import KnnModel, fit_knn, predict_knn
from .svr import SvrModel, fit_svr
from .tree import Tree, eval_tree, fit_tree, tree_apply, tree_depth

__all__ = [
    "CLASSIFIER_FAMILIES",
    "FAMILIES",
    "ForestModel",
    "GbtModel",
    "ImportanceReport",
    "KnnModel",
    "LearnerSpec",
    "LinearModel",
    "MAX_LAYERS",
    "MAX_LAYER_WIDTH",
    "MAX_TREES",
    "MlpModel",
    "MlpNetwork",
    "PARAMS",
    "REGISTRY",
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
    "predict_knn",
    "standardize",
    "tree_apply",
    "tree_depth",
]


def _count(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 1


def _finite(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def int_tuple(text: str) -> tuple[int, ...]:
    """Parse comma-separated integers: "50,50" -> (50, 50)."""
    return tuple(int(v) for v in text.split(",") if v)


@dataclass(frozen=True)
class Param:
    """One hyperparameter: its text form, its valid values and its flag help."""

    parse: Callable[[str], object]
    check: Callable[[object], bool]
    rule: str  # completes "<name> must be ..."
    help: str | None = None  # set for the parameters the CLI exposes as flags
    show: Callable[[object], str] = str


_COUNT = "an integer >= 1"

#: Most trees one forest or boosted ensemble may hold; each is fitted in turn.
MAX_TREES = 10_000
#: Most units one hidden layer may have.  Two layers this wide already need
#: an 8 MB weight matrix, and its gradient, per network.
MAX_LAYER_WIDTH = 1_000
#: Most hidden layers one network may have: at most about 160 MB of weights.
MAX_LAYERS = 20

PARAMS: dict[str, Param] = {
    "k": Param(int, _count, _COUNT, "neighbors (knn)"),
    "trees": Param(
        int,
        lambda v: _count(v) and v <= MAX_TREES,
        f"an integer from 1 to {MAX_TREES}",
        "ensemble size",
    ),
    "depth": Param(int, _count, _COUNT, "maximum tree depth"),
    "min_leaf": Param(int, _count, _COUNT),
    "epochs": Param(int, _count, _COUNT),
    "batch": Param(int, _count, _COUNT),
    "iters": Param(int, _count, _COUNT),
    "rate": Param(
        float, lambda v: _finite(v) and 0 < v <= 1, "a number in (0, 1]", "learning rate"
    ),
    "layers": Param(
        int_tuple,
        lambda v: isinstance(v, tuple)
        and 1 <= len(v) <= MAX_LAYERS
        and all(_count(s) and s <= MAX_LAYER_WIDTH for s in v),
        f"1 to {MAX_LAYERS} integers from 1 to {MAX_LAYER_WIDTH}",
        "hidden layer sizes, comma separated (ann/deep_learning)",
        show=lambda v: ",".join(str(s) for s in v),
    ),
    "c": Param(
        float, lambda v: _finite(v) and v > 0, "a finite number > 0", "penalty weight (svr)"
    ),
    "epsilon": Param(
        float, lambda v: _finite(v) and v >= 0, "a finite number >= 0", "insensitive band (svr)"
    ),
    # None (the default) means 1 / n_features.
    "gamma": Param(
        float,
        lambda v: v is None or (_finite(v) and v > 0),
        "a finite number > 0",
        "rbf width (svr)",
    ),
    "kernel": Param(str, lambda v: v in ("linear", "rbf"), "linear or rbf"),
    "activation": Param(str, lambda v: v in ("sigmoid", "relu"), "sigmoid or relu"),
}

#: Spec names that the fit functions spell differently.
_KEYWORDS = {
    "trees": "n_trees",
    "depth": "max_depth",
    "layers": "hidden",
    "batch": "batch_size",
    "c": "C",
    "iters": "max_iter",
}


@dataclass(frozen=True)
class Family:
    """One learner family: table label, fit function and defaults."""

    label: str
    fit: str  # name of a fit function in this module, looked up when called
    defaults: Mapping[str, object]
    context: tuple[str, ...] = ()  # which of task, seed, n_classes ``fit`` takes


#: The eight families in canonical table order.
REGISTRY: dict[str, Family] = {
    "random_forest": Family(
        "Random Forest",
        "fit_forest",
        {"trees": 100, "depth": 10, "min_leaf": 1},
        ("task", "seed", "n_classes"),
    ),
    "ann": Family(
        "Artificial Neural Network",
        "fit_mlp",
        {"layers": (10,), "activation": "sigmoid", "epochs": 500, "rate": 0.1, "batch": 16},
        ("task", "seed", "n_classes"),
    ),
    "decision_tree": Family(
        "Decision Tree", "fit_tree", {"depth": 10, "min_leaf": 1}, ("task", "n_classes")
    ),
    "svr": Family(
        "Support Vector Machine",
        "fit_svr",
        {"c": 1.0, "epsilon": 0.1, "kernel": "rbf", "gamma": None, "iters": 500},
    ),
    "knn": Family("k-NN", "fit_knn", {"k": 5}, ("task", "n_classes")),
    "gbt": Family(
        "Gradient Boosted Trees",
        "fit_gbt",
        {"trees": 100, "depth": 5, "rate": 0.1, "min_leaf": 1},
    ),
    "deep_learning": Family(
        "Deep Learning",
        "fit_mlp",
        {"layers": (50, 50), "activation": "relu", "epochs": 300, "rate": 0.01, "batch": 16},
        ("task", "seed", "n_classes"),
    ),
    "linear_regression": Family("Linear Regression", "fit_ols", {}),
}

FAMILIES = tuple(REGISTRY)

#: Families usable for zone classification: those whose fit takes n_classes.
CLASSIFIER_FAMILIES = tuple(name for name, f in REGISTRY.items() if "n_classes" in f.context)


def _parse(key: str, text: str, parse: Callable[[str], object], rule: str):
    try:
        return parse(text)
    except ValueError:
        raise ValidationError(f"{key} must be {rule}, got {text!r}") from None


@dataclass(frozen=True)
class LearnerSpec:
    """One learner family plus hyperparameter overrides and a seed.

    ``params`` holds only the values that differ from the family defaults;
    :meth:`resolved` merges them.
    """

    family: str
    seed: int = 42
    params: Mapping = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.family not in REGISTRY:
            raise ValidationError(
                f"unknown learner family {self.family!r}; expected one of {', '.join(FAMILIES)}"
            )
        unknown = set(self.params) - set(REGISTRY[self.family].defaults)
        if unknown:
            raise ValidationError(
                f"{self.family} does not accept parameter(s): {', '.join(sorted(unknown))}"
            )
        for key, value in self.params.items():
            if not PARAMS[key].check(value):
                raise ValidationError(
                    f"{self.family}: {key} must be {PARAMS[key].rule}, got {value!r}"
                )

    def resolved(self) -> dict:
        return {**REGISTRY[self.family].defaults, **self.params}

    def to_text(self) -> str:
        """Render as space-separated key=value pairs."""
        parts = [f"family={self.family}"]
        for key, value in sorted(self.resolved().items()):
            if value is not None:
                parts.append(f"{key}={PARAMS[key].show(value)}")
        parts.append(f"seed={self.seed}")
        return " ".join(parts)

    @classmethod
    def from_text(cls, text: str) -> "LearnerSpec":
        """Parse "family=knn k=3 seed=7"-style key=value pairs."""
        fields: dict[str, str] = {}
        for token in text.split():
            key, sep, value = token.partition("=")
            if not sep:
                raise ValidationError(f"malformed token {token!r}; expected key=value")
            fields[key.strip().lower()] = value.strip()
        if "family" not in fields:
            raise ValidationError("learner text is missing family=...")
        family = fields.pop("family")
        seed = _parse("seed", fields.pop("seed"), int, "an integer") if "seed" in fields else 42
        # An unknown key keeps its text, so the family check names it.
        params = {
            key: _parse(key, value, PARAMS[key].parse, PARAMS[key].rule) if key in PARAMS else value
            for key, value in fields.items()
        }
        return cls(family=family, seed=seed, params=params)


def _fit(spec: LearnerSpec, X, y, **context):
    """Call the family's fit function with its resolved hyperparameters.

    ``context`` holds ``task`` and, for classification, ``n_classes``; the
    fit function receives those of task/seed/n_classes it takes.  It is
    looked up in this module at call time, so a wrapper installed on the
    module attribute sees every fit.
    """
    family = REGISTRY[spec.family]
    context["seed"] = spec.seed
    kwargs = {_KEYWORDS.get(key, key): value for key, value in spec.resolved().items()}
    kwargs.update((name, context[name]) for name in family.context if name in context)
    return globals()[family.fit](X, y, **kwargs)


def fit_regressor(spec: LearnerSpec, X: np.ndarray, y: np.ndarray):
    """Train one numeric-target model of the requested family."""
    return _fit(spec, X, y, task="regression")


def fit_classifier(spec: LearnerSpec, X: np.ndarray, y: np.ndarray, n_classes: int):
    """Train a zone classifier; ``y`` holds integer class indices."""
    if spec.family not in CLASSIFIER_FAMILIES:
        raise ValidationError(
            f"{spec.family} is regression-only; classification families are "
            f"{', '.join(CLASSIFIER_FAMILIES)}"
        )
    return _fit(spec, X, y, task="classification", n_classes=n_classes)
