"""Learner plumbing: parameter rules, training and query checks, standardization, predictions."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..data import ZONES, ValidationError


class TrainingDivergedError(RuntimeError):
    """Training produced a non-finite loss; carries the failing epoch."""

    def __init__(self, message: str, epoch: int | None = None):
        super().__init__(message)
        self.epoch = epoch


def _count(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 1


def _finite(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def _positive(value) -> bool:
    return _finite(value) and value > 0


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
    keyword: str | None = None  # set where the fit functions name it differently


_COUNT, _POSITIVE = "an integer >= 1", "a finite number > 0"

#: Most trees one forest or boosted ensemble may hold; each is fitted in turn.
MAX_TREES = 10_000
#: Most units one hidden layer may have.  Two layers this wide already need
#: an 8 MB weight matrix, and its gradient, per network.
MAX_LAYER_WIDTH = 1_000
#: Most hidden layers one network may have: at most about 160 MB of weights.
MAX_LAYERS = 20
#: Most epochs one network may train and iterations one SVR fit may run: each
#: is a pass over the training rows, and each limit is 200 times its preset.
MAX_EPOCHS = 100_000
MAX_ITERS = 100_000


def _up_to(limit: int) -> tuple[Callable[[object], bool], str]:
    """The check and rule of an integer from 1 to ``limit``."""
    return lambda v: _count(v) and v <= limit, f"an integer from 1 to {limit}"


#: Every hyperparameter of the eight families, in CLI flag order.  A fit
#: function's keyword defaults are its family's defaults (``REGISTRY``).
PARAMS: dict[str, Param] = {
    "k": Param(int, _count, _COUNT, "neighbors (knn)"),
    "trees": Param(int, *_up_to(MAX_TREES), "ensemble size", keyword="n_trees"),
    "depth": Param(int, _count, _COUNT, "maximum tree depth", keyword="max_depth"),
    "min_leaf": Param(int, _count, _COUNT),
    "epochs": Param(int, *_up_to(MAX_EPOCHS)),
    "batch": Param(int, _count, _COUNT, keyword="batch_size"),
    "iters": Param(int, *_up_to(MAX_ITERS), keyword="max_iter"),
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
        keyword="hidden",
    ),
    "c": Param(float, _positive, _POSITIVE, "penalty weight (svr)", keyword="C"),
    "epsilon": Param(
        float, lambda v: _finite(v) and v >= 0, "a finite number >= 0", "insensitive band (svr)"
    ),
    # None (the default) means 1 / n_features.
    "gamma": Param(float, lambda v: v is None or _positive(v), _POSITIVE, "rbf width (svr)"),
    "kernel": Param(str, lambda v: v in ("linear", "rbf"), "linear or rbf"),
    "activation": Param(str, lambda v: v in ("sigmoid", "relu"), "sigmoid or relu"),
}

#: PARAMS under the fit functions' keywords as well as their own names.
_RULES = {**PARAMS, **{param.keyword: param for param in PARAMS.values() if param.keyword}}


def check_params(prefix: str = "", /, **values) -> None:
    """Refuse a value outside its rule in :data:`PARAMS`, named as given (a PARAMS
    name or a fit keyword) after ``prefix``."""
    for name, value in values.items():
        param = _RULES[name]
        if not param.check(value):
            raise ValidationError(f"{prefix}{name} must be {param.rule}, got {value!r}")


def training_data(X, y, task: str = "regression", n_classes: int | None = None):
    """Check one training set under the rules every learner shares.

    ``X`` must be a 2-D matrix of finite floats with one row per target and
    at least one row.  Regression targets are cast to float and must be
    finite; class labels must be whole numbers in ``0 .. n_classes - 1``
    and are cast to int.  Returns the checked ``(X, y)``.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if X.ndim != 2 or y.ndim != 1 or len(X) != len(y):
        raise ValidationError(f"X and y disagree: {X.shape} vs {y.shape}")
    if len(y) == 0:
        raise ValidationError("cannot fit on an empty training set")
    if not np.isfinite(X).all():
        raise ValidationError("training features contain non-finite values")
    if task == "regression":
        y = y.astype(float)
        if not np.isfinite(y).all():
            raise ValidationError("regression targets contain non-finite values")
    elif task == "classification":
        if n_classes is None:
            raise ValidationError("classification requires n_classes")
        if not (np.isfinite(y) & (np.round(y) == y)).all():
            raise ValidationError("class labels must be whole numbers")
        lo, hi = int(y.min()), int(y.max())
        if lo < 0 or hi >= n_classes:
            raise ValidationError(f"class labels must lie in 0..{n_classes - 1}, got {lo}..{hi}")
        y = y.astype(int)
    else:
        raise ValidationError(f"unknown task {task!r}")
    return X, y


def query_data(X, n_features: int | None) -> np.ndarray:
    """Check one query matrix under the rules every fitted model shares.

    A 1-D query is one row.  The queries must be a 2-D matrix of finite
    floats with the ``n_features`` columns the model was fitted on (any
    width when None).  Returns the checked matrix.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.ndim != 2 or n_features not in (None, X.shape[1]):
        raise ValidationError(f"queries have shape {X.shape}, expected {n_features} columns")
    if not np.isfinite(X).all():
        raise ValidationError("query features contain non-finite values")
    return X


@dataclass(frozen=True)
class Standardizer:
    """Column-wise (x - mean) / std transform fitted on training data.

    Uses the population (divide-by-n) standard deviation.  Columns with
    zero variance pass through unscaled.  Apply the same fitted transform
    to test data; never refit on test data.  A finite cell whose
    transformed value overflows is refused, naming its column.
    """

    mean: np.ndarray
    scale: np.ndarray

    def transform(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        with np.errstate(over="ignore"):
            out = (X - self.mean) / self.scale
        overflows = np.isfinite(X) & ~np.isfinite(out)
        if overflows.any():
            column = np.argmax(np.atleast_2d(overflows).any(axis=0))
            raise ValidationError(
                f"feature column {column}: a value overflows when scaled by the training "
                "rows' mean and standard deviation"
            )
        return out


def standardize(train: np.ndarray) -> tuple[Standardizer, np.ndarray]:
    """Fit a standardizer on training features; returns (stats, transformed)."""
    X = np.asarray(train, dtype=float)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValidationError("standardize expects a non-empty 2-D array")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = X.mean(axis=0)
        std = X.std(axis=0)  # population convention
    overflows = ~(np.isfinite(mean) & np.isfinite(std))
    if overflows.any():
        raise ValidationError(
            f"feature column {np.argmax(overflows)}: the mean or standard deviation "
            "of the training rows overflows"
        )
    scale = np.where(std > 0, std, 1.0)
    mean = np.where(std > 0, mean, 0.0)  # constant columns pass through unchanged
    stats = Standardizer(mean=mean, scale=scale)
    return stats, stats.transform(X)


def prediction_from_scores(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Check a (rows x zones) confidence matrix and take each row's argmax.

    Returns (predicted zone indices, the scores as float64).  Every row
    must be non-negative and sum to 1; exact ties go to the earliest
    zone in ``ZONES`` order.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 2 or scores.shape[1] != len(ZONES):
        raise ValidationError(f"expected {len(ZONES)} scores per row, got shape {scores.shape}")
    bad = (scores < -1e-12).any(axis=1) | (np.abs(scores.sum(axis=1) - 1.0) > 1e-9)
    if bad.any():
        raise ValidationError(
            f"confidences must be non-negative and sum to 1, got {scores[np.argmax(bad)]}"
        )
    return np.argmax(scores, axis=1), scores
