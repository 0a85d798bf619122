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
from .base import TrainingDivergedError

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
        return predict_svr(self, X)


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
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(X) == 0:
        raise ValidationError("cannot train on an empty dataset")
    if C <= 0:
        raise ValidationError(f"C must be > 0, got {C}")
    if epsilon < 0:
        raise ValidationError(f"epsilon must be >= 0, got {epsilon}")
    if kernel not in ("linear", "rbf"):
        raise ValidationError(f"unknown kernel {kernel!r}")

    n, p = X.shape
    if kernel == "rbf" and n > _RBF_MAX_ROWS:
        raise ValidationError(
            f"the rbf kernel is limited to {_RBF_MAX_ROWS} training rows "
            f"(its kernel matrix is n x n), got {n}"
        )
    if kernel == "rbf":
        gamma = gamma if gamma is not None else 1.0 / p
        K = _rbf_kernel(X, X, gamma)
        theta = np.zeros(n + 1)  # beta..., b

        def objective(t):
            f = K @ t[:-1] + t[-1]
            slack = np.maximum(np.abs(y - f) - epsilon, 0.0)
            return 0.5 * float(t[:-1] @ K @ t[:-1]) + C * float(slack.sum())

        def subgradient(t):
            r = y - (K @ t[:-1] + t[-1])
            s = np.where(np.abs(r) > epsilon, np.sign(r), 0.0)
            g = np.empty(n + 1)
            g[:-1] = K @ (t[:-1] - C * s)
            g[-1] = -C * s.sum()
            return g

    else:
        theta = np.zeros(p + 1)  # w..., b

        def objective(t):
            f = X @ t[:-1] + t[-1]
            slack = np.maximum(np.abs(y - f) - epsilon, 0.0)
            return 0.5 * float(t[:-1] @ t[:-1]) + C * float(slack.sum())

        def subgradient(t):
            r = y - (X @ t[:-1] + t[-1])
            s = np.where(np.abs(r) > epsilon, np.sign(r), 0.0)
            g = np.empty(p + 1)
            g[:-1] = t[:-1] - C * (X.T @ s)
            g[-1] = -C * s.sum()
            return g

    # Overflow here is the divergence signal, not an error: a non-finite
    # objective raises TrainingDivergedError below.
    with np.errstate(over="ignore", invalid="ignore"):
        current = objective(theta)
        trajectory = [current]
        step = 1.0
        for _ in range(max_iter):
            g = subgradient(theta)
            accepted = False
            trial_step = step
            for _ in range(_MAX_HALVINGS):
                candidate = theta - trial_step * g
                value = objective(candidate)
                if not np.isfinite(value):
                    raise TrainingDivergedError("svr objective became non-finite")
                if value <= current:
                    theta, current = candidate, value
                    step = trial_step * _STEP_GROW
                    accepted = True
                    break
                trial_step *= 0.5
            if not accepted:
                step = trial_step  # keep shrinking on the next iteration
            trajectory.append(current)

    if kernel == "rbf":
        return SvrModel(
            kernel=kernel,
            C=C,
            epsilon=epsilon,
            gamma=gamma,
            w=None,
            beta=theta[:-1],
            b=float(theta[-1]),
            X_train=X,
            objectives=tuple(trajectory),
        )
    return SvrModel(
        kernel=kernel,
        C=C,
        epsilon=epsilon,
        gamma=None,
        w=theta[:-1],
        beta=None,
        b=float(theta[-1]),
        X_train=None,
        objectives=tuple(trajectory),
    )


def predict_svr(model: SvrModel, X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if model.kernel == "linear":
        return X @ model.w + model.b
    K = _rbf_kernel(X, model.X_train, model.gamma)
    return K @ model.beta + model.b
