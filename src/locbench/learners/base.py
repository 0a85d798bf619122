"""Shared learner plumbing: feature matrices, standardization, predictions."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..data import ZONES, ValidationError


class TrainingDivergedError(RuntimeError):
    """Training produced a non-finite loss; carries the failing epoch."""

    def __init__(self, message: str, epoch: int | None = None):
        super().__init__(message)
        self.epoch = epoch


@dataclass(frozen=True)
class FeatureMatrix:
    """A rectangular, all-finite feature table with named columns."""

    values: np.ndarray
    columns: tuple[str, ...]

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise ValidationError(f"feature matrix must be 2-D, got {values.ndim}-D")
        if values.shape[1] != len(self.columns):
            raise ValidationError(
                f"{values.shape[1]} columns of data vs {len(self.columns)} column names"
            )
        if not np.isfinite(values).all():
            raise ValidationError("feature matrix contains non-finite values")
        object.__setattr__(self, "values", values)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]


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
    mean = X.mean(axis=0)
    std = X.std(axis=0)  # population convention
    scale = np.where(std > 0, std, 1.0)
    mean = np.where(std > 0, mean, 0.0)  # constant columns pass through unchanged
    stats = Standardizer(mean=mean, scale=scale)
    return stats, stats.transform(X)


@dataclass(frozen=True)
class PredictionWithConfidence:
    """A zone prediction with per-zone confidence fractions summing to 1."""

    label: str
    confidence: Mapping[str, float]


def prediction_from_scores(
    scores: np.ndarray, classes: tuple[str, ...] = ZONES
) -> PredictionWithConfidence:
    """Turn a confidence vector into a prediction.

    The label is the argmax; exact ties go to the earliest class in
    ``classes`` (canonical zone order).
    """
    scores = np.asarray(scores, dtype=float)
    if scores.shape != (len(classes),):
        raise ValidationError(f"expected {len(classes)} scores, got shape {scores.shape}")
    if (scores < -1e-12).any() or abs(scores.sum() - 1.0) > 1e-9:
        raise ValidationError(f"confidences must be non-negative and sum to 1, got {scores}")
    label = classes[int(np.argmax(scores))]
    return PredictionWithConfidence(
        label=label, confidence={c: float(s) for c, s in zip(classes, scores)}
    )
