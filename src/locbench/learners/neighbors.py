"""k-nearest-neighbor prediction under the Euclidean metric.

Distance ties at the k-th neighbor resolve to the lowest training row
index (stable sort order).  Standardize features upstream; raw distances
are otherwise dominated by large-scale columns.

Queries are processed in blocks of at most ``_BLOCK_ELEMENTS`` difference
elements (block rows x training rows x features, one query row at least),
so memory is bounded by one block, not by the number of queries.  Each
squared distance is the sum of squared coordinate differences, never the
||a||^2 + ||b||^2 - 2ab expansion, which can reorder exact ties.  The k
nearest rows are picked by a linear-time partition and then ordered by
(distance, training row index): exactly the first k of a stable argsort.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data import ValidationError

# Elements of one float64 difference block: 2**20 is 8 MiB.
_BLOCK_ELEMENTS = 1 << 20


@dataclass(frozen=True)
class KnnModel:
    X: np.ndarray
    y: np.ndarray
    k: int
    task: str
    n_classes: int | None = None

    def predict(self, X: np.ndarray) -> np.ndarray:
        return predict_knn(self, X)

    def predict_confidence(self, X: np.ndarray) -> np.ndarray:
        if self.task != "classification":
            raise ValidationError("confidence output requires a classification model")
        return predict_knn(self, X)


def fit_knn(X, y, *, k: int = 5, task: str = "regression", n_classes: int | None = None) -> KnnModel:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if task not in ("regression", "classification"):
        raise ValidationError(f"unknown task {task!r}")
    if X.ndim != 2:
        raise ValidationError(f"features must be a 2-D array, got {X.ndim} dimensions")
    if not np.isfinite(X).all():
        raise ValidationError("training features contain non-finite values")
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if k > len(X):
        raise ValidationError(f"k={k} exceeds the {len(X)} training rows")
    if task == "classification":
        if n_classes is None:
            raise ValidationError("classification requires n_classes")
        y = y.astype(int)
        if len(y) and (y.min() < 0 or y.max() >= n_classes):
            raise ValidationError(f"class labels must lie in 0..{n_classes - 1}")
    else:
        y = y.astype(float)
        if not np.isfinite(y).all():
            raise ValidationError("training targets contain non-finite values")
    return KnnModel(X=X, y=y, k=k, task=task, n_classes=n_classes)


def _nearest_in_block(d2: np.ndarray, k: int) -> np.ndarray:
    """First k columns of ``np.argsort(d2, axis=1, kind="stable")``."""
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1 : k]
    take = d2 < kth
    # Fewer than k rows lie strictly closer; fill the rest with the
    # lowest-index rows at exactly the k-th distance.
    need = k - take.sum(axis=1, keepdims=True)
    eq = d2 == kth
    take |= eq & (np.cumsum(eq, axis=1) <= need)
    idx = np.nonzero(take)[1].reshape(len(d2), k)
    order = np.argsort(np.take_along_axis(d2, idx, axis=1), axis=1, kind="stable")
    return np.take_along_axis(idx, order, axis=1)


def _neighbor_indices(model: KnnModel, queries: np.ndarray) -> np.ndarray:
    X = model.X
    rows = max(1, _BLOCK_ELEMENTS // max(1, X.size))
    nearest = np.empty((len(queries), model.k), dtype=np.intp)
    for start in range(0, len(queries), rows):
        diff = queries[start : start + rows, None, :] - X[None, :, :]
        d2 = np.einsum("qnp,qnp->qn", diff, diff)
        nearest[start : start + rows] = _nearest_in_block(d2, model.k)
    return nearest


def predict_knn(model: KnnModel, X) -> np.ndarray:
    """Mean neighbor target (regression) or vote fractions (classification)."""
    queries = np.atleast_2d(np.asarray(X, dtype=float))
    if queries.ndim != 2 or queries.shape[1] != model.X.shape[1]:
        raise ValidationError(
            f"queries have shape {queries.shape}, expected {model.X.shape[1]} columns"
        )
    if not np.isfinite(queries).all():
        raise ValidationError("query features contain non-finite values")
    nearest = _neighbor_indices(model, queries)
    if model.task == "regression":
        return model.y[nearest].mean(axis=1)
    q, c = len(queries), model.n_classes
    votes = np.arange(q)[:, None] * c + model.y[nearest]
    return np.bincount(votes.ravel(), minlength=q * c).reshape(q, c) / model.k
