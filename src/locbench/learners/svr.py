"""Support vector regression trained by monotone subgradient descent.

Minimizes 0.5 * ||w||^2 + C * sum(max(0, |residual| - epsilon)) -- the
epsilon-insensitive loss -- either directly on the weights (linear
kernel) or on per-sample coefficients through the kernel matrix (RBF).
Each iteration proposes a subgradient step and backtracks (halving the
step) until the objective does not increase, so the recorded objective
trajectory is non-increasing by construction.  The optimizer runs a
fixed iteration budget and is deterministic.

The RBF kernel matrix is dense, n x n float64, so the RBF kernel accepts
at most ``_RBF_MAX_ROWS`` training rows (5,000: a 200 MB matrix).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data import ValidationError
from .base import TrainingDivergedError, query_data, training_data

_STEP_GROW = 1.3
_MAX_HALVINGS = 50
_RBF_MAX_ROWS = 5000


def _rbf_kernel(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    d2 = (
        np.sum(A * A, axis=1)[:, None]
        + np.sum(B * B, axis=1)[None, :]
        - 2.0 * (A @ B.T)
    )
    return np.exp(-gamma * np.maximum(d2, 0.0))


@dataclass(frozen=True)
class SvrModel:
    kernel: str
    C: float
    epsilon: float
    gamma: float | None
    w: np.ndarray | None  # linear kernel
    beta: np.ndarray | None  # rbf kernel, one coefficient per training row
    b: float
    X_train: np.ndarray | None
    objectives: tuple[float, ...]

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.kernel == "linear":
            return query_data(X, len(self.w)) @ self.w + self.b
        X = query_data(X, self.X_train.shape[1])
        return _rbf_kernel(X, self.X_train, self.gamma) @ self.beta + self.b


def fit_svr(
    X,
    y,
    *,
    C: float = 1.0,
    epsilon: float = 0.1,
    kernel: str = "rbf",
    gamma: float | None = None,
    max_iter: int = 500,
) -> SvrModel:
    X, y = training_data(X, y)
    if C <= 0:
        raise ValidationError(f"C must be > 0, got {C}")
    if epsilon < 0:
        raise ValidationError(f"epsilon must be >= 0, got {epsilon}")
    if kernel not in ("linear", "rbf"):
        raise ValidationError(f"unknown kernel {kernel!r}")

    n, p = X.shape
    rbf = kernel == "rbf"
    # Each kernel sets the design matrix the coefficients act through,
    # the penalty on them and its subgradient's coefficient part.
    if rbf:
        if n > _RBF_MAX_ROWS:
            raise ValidationError(
                f"the rbf kernel is limited to {_RBF_MAX_ROWS} training rows "
                f"(its kernel matrix is n x n), got {n}"
            )
        gamma = gamma if gamma is not None else 1.0 / p
        design = K = _rbf_kernel(X, X, gamma)
        penalty = lambda coef: coef @ K @ coef
        descent = lambda coef, s: K @ (coef - C * s)
    else:
        design = X
        penalty = lambda coef: coef @ coef
        descent = lambda coef, s: coef - C * (X.T @ s)
    theta = np.zeros(design.shape[1] + 1)  # coefficients..., b

    def objective(t):
        f = design @ t[:-1] + t[-1]
        slack = np.maximum(np.abs(y - f) - epsilon, 0.0)
        return 0.5 * float(penalty(t[:-1])) + C * float(slack.sum())

    def subgradient(t):
        r = y - (design @ t[:-1] + t[-1])
        s = np.where(np.abs(r) > epsilon, np.sign(r), 0.0)
        return np.append(descent(t[:-1], s), -C * s.sum())

    # Overflow here is the divergence signal, not an error: a non-finite
    # objective raises TrainingDivergedError below.
    with np.errstate(over="ignore", invalid="ignore"):
        current = objective(theta)
        trajectory = [current]
        step = 1.0
        for _ in range(max_iter):
            g = subgradient(theta)
            # After _MAX_HALVINGS rejected steps, the next iteration starts
            # from the last, smallest one.
            for _ in range(_MAX_HALVINGS):
                candidate = theta - step * g
                value = objective(candidate)
                if not np.isfinite(value):
                    raise TrainingDivergedError("svr objective became non-finite")
                if value <= current:
                    theta, current = candidate, value
                    step *= _STEP_GROW
                    break
                step *= 0.5
            trajectory.append(current)

    coef = theta[:-1]
    return SvrModel(
        kernel=kernel,
        C=C,
        epsilon=epsilon,
        gamma=gamma if rbf else None,
        w=None if rbf else coef,
        beta=coef if rbf else None,
        b=float(theta[-1]),
        X_train=X if rbf else None,
        objectives=tuple(trajectory),
    )
