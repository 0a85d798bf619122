"""Ordinary least squares via the normal equations.

A small ridge term (1e-8 on the Gram diagonal) keeps rank-deficient
systems solvable; a system that is singular even with the jitter raises.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data import ValidationError
from .base import query_data, training_data

RIDGE_JITTER = 1e-8


@dataclass(frozen=True)
class LinearModel:
    coef: np.ndarray
    intercept: float

    def predict(self, X: np.ndarray) -> np.ndarray:
        return query_data(X, len(self.coef)) @ self.coef + self.intercept


def fit_ols(X, y) -> LinearModel:
    X, y = training_data(X, y)
    n, p = X.shape
    if n < p + 1:
        raise ValidationError(f"need at least p+1={p + 1} rows to fit {p} coefficients, got {n}")
    A = np.hstack([X, np.ones((n, 1))])
    gram = A.T @ A + RIDGE_JITTER * np.eye(p + 1)
    try:
        theta = np.linalg.solve(gram, A.T @ y)
    except np.linalg.LinAlgError as exc:
        raise ValidationError(f"normal equations are singular even with jitter: {exc}") from None
    if not np.isfinite(theta).all():
        raise ValidationError("normal equations produced non-finite coefficients")
    return LinearModel(coef=theta[:-1], intercept=float(theta[-1]))
