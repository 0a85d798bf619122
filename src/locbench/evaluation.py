"""Error metrics and classification statistics.

Regression quality follows the ISO/IEC 18305 planar-error definitions:
per-axis root mean squared error and their quadrature sum (the horizontal
error).  Classification quality is a confusion matrix with per-class
precision and recall; the matrix is oriented rows = predicted,
columns = true, so precision reads along a row and recall down a column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .data import ZONES, ValidationError


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts of (predicted, true) label pairs.

    ``counts[i][j]`` is the number of samples predicted as ``classes[i]``
    whose true label is ``classes[j]``.
    """

    classes: tuple[str, ...]
    counts: np.ndarray

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=int)
        k = len(self.classes)
        if counts.shape != (k, k):
            raise ValidationError(f"counts must be {k}x{k}, got {counts.shape}")
        if (counts < 0).any():
            raise ValidationError("confusion counts must be non-negative")
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def trace(self) -> int:
        return int(np.trace(self.counts))


@dataclass(frozen=True)
class ClassificationReport:
    """Accuracy plus per-class precision/recall.

    Precision or recall is ``None`` when its denominator (a predicted or
    true count) is zero; renderers show those cells as "n/a" rather than
    folding them into averages as zeros.
    """

    classes: tuple[str, ...]
    accuracy: float
    precision: Mapping[str, float | None]
    recall: Mapping[str, float | None]
    matrix: ConfusionMatrix


def confusion_matrix(
    truth: Sequence[int], predicted: Sequence[int], classes: Sequence[str] = ZONES
) -> ConfusionMatrix:
    """Tally predictions against ground truth, both given as indices into ``classes``."""
    truth = np.asarray(truth)
    predicted = np.asarray(predicted)
    if len(truth) != len(predicted):
        raise ValidationError(
            f"length mismatch: {len(truth)} truth labels vs {len(predicted)} predictions"
        )
    if len(truth) == 0:
        raise ValidationError("cannot build a confusion matrix from zero samples")
    classes = tuple(classes)
    k = len(classes)
    for kind, labels in (("true", truth), ("predicted", predicted)):
        if labels.ndim != 1 or labels.dtype.kind not in "iu":
            raise ValidationError(f"{kind} labels must be a 1-D array of class indices")
        if ((labels < 0) | (labels >= k)).any():
            raise ValidationError(f"{kind} label index outside 0..{k - 1} (classes {classes})")
    cells = predicted.astype(np.intp) * k + truth.astype(np.intp)
    counts = np.bincount(cells, minlength=k * k).reshape(k, k)
    return ConfusionMatrix(classes=classes, counts=counts)


def classification_report(cm: ConfusionMatrix) -> ClassificationReport:
    """Accuracy, per-class precision (row-wise) and recall (column-wise)."""
    if cm.total < 1:
        raise ValidationError("confusion matrix is empty")
    row_sums = cm.counts.sum(axis=1)
    col_sums = cm.counts.sum(axis=0)
    precision = {}
    recall = {}
    for i, cls in enumerate(cm.classes):
        hit = int(cm.counts[i, i])
        precision[cls] = hit / row_sums[i] if row_sums[i] > 0 else None
        recall[cls] = hit / col_sums[i] if col_sums[i] > 0 else None
    return ClassificationReport(
        classes=cm.classes,
        accuracy=cm.trace / cm.total,
        precision=precision,
        recall=recall,
        matrix=cm,
    )


def rmse(errors: Sequence[float]) -> float:
    """Root mean squared error of a sequence of signed errors."""
    arr = np.asarray(errors, dtype=float)
    if arr.size == 0:
        raise ValidationError("rmse of an empty error sequence is undefined")
    if not np.isfinite(arr).all():
        raise ValidationError("rmse requires finite errors")
    return float(np.sqrt(np.mean(arr * arr)))


def horizontal_error(rmse_x: float, rmse_y: float) -> float:
    """Planar error: the quadrature sum of the two per-axis RMSE values."""
    if rmse_x < 0 or rmse_y < 0:
        raise ValidationError("per-axis rmse values must be non-negative")
    return math.hypot(rmse_x, rmse_y)


#: The regression metrics, in table order: fields of ``RegressionReport``.
REGRESSION_METRICS = ("rmse_x", "rmse_y", "horizontal_error")


@dataclass(frozen=True)
class RegressionReport:
    """Per-axis RMSE, their horizontal combination, and the raw errors.

    Built via :func:`regression_report`, which guarantees
    horizontal_error**2 == rmse_x**2 + rmse_y**2 up to rounding.
    All values are centimeters.
    """

    rmse_x: float
    rmse_y: float
    horizontal_error: float
    n: int
    errors_x: tuple[float, ...] = ()
    errors_y: tuple[float, ...] = ()


def regression_report(errors_x: Sequence[float], errors_y: Sequence[float]) -> RegressionReport:
    """Build a report from per-row signed errors in cm."""
    if len(errors_x) != len(errors_y):
        raise ValidationError(
            f"length mismatch: {len(errors_x)} x-errors vs {len(errors_y)} y-errors"
        )
    errors_x = np.asarray(errors_x, dtype=float)
    errors_y = np.asarray(errors_y, dtype=float)
    ex = rmse(errors_x)
    ey = rmse(errors_y)
    return RegressionReport(
        rmse_x=ex,
        rmse_y=ey,
        horizontal_error=horizontal_error(ex, ey),
        n=len(errors_x),
        errors_x=tuple(errors_x.tolist()),
        errors_y=tuple(errors_y.tolist()),
    )


@dataclass(frozen=True)
class Ranking:
    """Model names ordered ascending by each regression metric."""

    by_rmse_x: tuple[str, ...]
    by_rmse_y: tuple[str, ...]
    by_horizontal: tuple[str, ...]

    @property
    def best(self) -> dict[str, str]:
        return {
            "rmse_x": self.by_rmse_x[0],
            "rmse_y": self.by_rmse_y[0],
            "horizontal_error": self.by_horizontal[0],
        }


def rank_models(reports: Mapping[str, RegressionReport]) -> Ranking:
    """Order models ascending by each metric; ties break alphabetically."""
    if not reports:
        raise ValidationError("rank_models requires at least one report")
    order = lambda metric: tuple(
        sorted(reports, key=lambda name: (getattr(reports[name], metric), name))
    )
    return Ranking(
        by_rmse_x=order("rmse_x"),
        by_rmse_y=order("rmse_y"),
        by_horizontal=order("horizontal_error"),
    )
