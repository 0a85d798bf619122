"""Eight learner families under one fit/predict contract.

Regressors expose ``model.predict(X) -> ndarray``; classifiers expose
``model.predict_confidence(X) -> (n, n_classes) ndarray`` of vote or
probability fractions that sum to one per row.  Build either through
:func:`fit_regressor` / :func:`fit_classifier` with a :class:`LearnerSpec`,
or call the per-family fit functions directly; each checks its
hyperparameters, then its training set with :func:`.base.training_data`.

Each hyperparameter's default is a keyword default of the fit functions,
read into :data:`REGISTRY` (two presets add theirs).  Its text form, valid
range, flag help and fit keyword are in :data:`PARAMS`, which
:func:`.base.check_params` applies to every spec and every direct fit.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from ..data import ValidationError
from .base import (
    MAX_EPOCHS,
    MAX_ITERS,
    MAX_LAYER_WIDTH,
    MAX_LAYERS,
    MAX_TREES,
    PARAMS,
    Param,
    Standardizer,
    TrainingDivergedError,
    check_params,
    int_tuple,
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
    "MAX_EPOCHS",
    "MAX_ITERS",
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
    "predict_knn",
    "standardize",
    "tree_apply",
    "tree_depth",
]


@dataclass(frozen=True)
class Family:
    """One learner family: table label, fit function and defaults."""

    label: str
    fit: str  # name of a fit function in this module, looked up when called
    defaults: Mapping[str, object]
    context: tuple[str, ...] = ()  # which of task, seed, n_classes ``fit`` takes


def _family(label: str, fit: Callable, **presets) -> Family:
    """A family whose defaults are ``fit``'s keyword-only defaults that PARAMS
    names, under their spec names, overridden by ``presets``."""
    names = {param.keyword or name: name for name, param in PARAMS.items()}
    defaults, context = {}, []
    for keyword, parameter in inspect.signature(fit).parameters.items():
        if parameter.kind is parameter.KEYWORD_ONLY and keyword in names:
            defaults[names[keyword]] = parameter.default
        elif keyword in ("task", "seed", "n_classes"):
            context.append(keyword)
    return Family(label, fit.__name__, {**defaults, **presets}, tuple(context))


#: The eight families in canonical table order.
REGISTRY: dict[str, Family] = {
    "random_forest": _family("Random Forest", fit_forest),
    "ann": _family("Artificial Neural Network", fit_mlp),
    "decision_tree": _family("Decision Tree", fit_tree, depth=10),
    "svr": _family("Support Vector Machine", fit_svr),
    "knn": _family("k-NN", fit_knn),
    "gbt": _family("Gradient Boosted Trees", fit_gbt),
    "deep_learning": _family(
        "Deep Learning", fit_mlp, layers=(50, 50), activation="relu", epochs=300, rate=0.01
    ),
    "linear_regression": _family("Linear Regression", fit_ols),
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
        check_params(f"{self.family}: ", **self.params)

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
    kwargs = {PARAMS[key].keyword or key: value for key, value in spec.resolved().items()}
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
