"""Shared learner plumbing: training and query checks, standardization, predictions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data import ZONES, ValidationError


class TrainingDivergedError(RuntimeError):
    """Training produced a non-finite loss; carries the failing epoch."""

    def __init__(self, message: str, epoch: int | None = None):
        super().__init__(message)
        self.epoch = epoch


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
    to test data; never refit on test data.
    """

    mean: np.ndarray
    scale: np.ndarray

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (np.asarray(X, dtype=float) - self.mean) / self.scale


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


def prediction_from_scores(
    scores: np.ndarray, classes: tuple[str, ...] = ZONES
) -> tuple[np.ndarray, np.ndarray]:
    """Check a (rows x classes) confidence matrix and take each row's argmax.

    Returns (predicted class indices, the scores as float64).  Every row
    must be non-negative and sum to 1; exact ties go to the earliest
    class in ``classes`` (canonical zone order).
    """
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 2 or scores.shape[1] != len(classes):
        raise ValidationError(f"expected {len(classes)} scores per row, got shape {scores.shape}")
    bad = (scores < -1e-12).any(axis=1) | (np.abs(scores.sum(axis=1) - 1.0) > 1e-9)
    if bad.any():
        raise ValidationError(
            f"confidences must be non-negative and sum to 1, got {scores[np.argmax(bad)]}"
        )
    return np.argmax(scores, axis=1), scores
