"""k-nearest-neighbor prediction under the Euclidean metric.

Distance ties at the k-th neighbor resolve to the lowest training row
index (stable sort order).  Standardize features upstream; raw distances
are otherwise dominated by large-scale columns.

Each squared distance is the sum of squared coordinate differences, never
the ||a||^2 + ||b||^2 - 2ab expansion, which can reorder exact ties.  The
sum runs in a fixed order, the lane rule (``_lane_columns``): two lanes,
lane l holding the columns j with j = l (mod 2).  While at least 8 columns
remain from column c, lane l adds c+6+l, c+4+l, c+2+l and c+l, in that
order, and c advances by 8; each remaining column is then added to its
lane in ascending order, and the distance is lane 0 + lane 1.  It is the
order numpy's ``einsum("qnp,qnp->qn")`` kernel sums in (numpy 2.4), so
distances and ties equal that whole-tensor reference bit for bit.

Distances are computed to distinct training rows only.  ``fit_knn`` groups
rows that are equal cell for cell (scanner readings repeat: whole dBm) and
keeps, for each distinct row, its training rows in ascending order, the
first k of them at most; a training set without repeats is the case of one
row per group.  Equal rows have bitwise equal distances to any query (+0.0
and -0.0 cells included: their squared differences are equal), so a tie
between them goes to the lower row index, and no row after a group's k-th
can be among the k nearest.

Queries are grouped the same way (``_sorted_groups`` serves both sides):
equal query rows have bitwise equal distances to every training row, so
each distinct query row is searched once and its neighbors are handed to
every equal row through an inverse index.  A query set without repeats is
one row per group.  The grouping adds O(queries) memory: the sort order,
the inverse and one (distinct rows x k) neighbor table.

Distinct query rows are processed in blocks of at most ``_BLOCK_ELEMENTS``
distance cells (block rows x distinct training rows, one query row at
least).  Distances are built one feature column at a time into buffers of
that shape that are allocated once per ``predict_knn`` call and reused for
every block, so the search holds three such buffers whatever the number of
queries or features, and all other memory is linear in the rows.  A
linear-time partition finds each query's k-th smallest distinct distance
(or its largest, with fewer than k distinct rows); every distinct row at or
under it expands to its kept training rows, which are then ordered by
(distance, training row index): exactly the first k of a stable argsort
over all training rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data import ValidationError
from .base import check_params, query_data, training_data

# Distance cells (query rows x distinct training rows) in one block: 2**15
# float64 cells are 256 KiB per buffer.
_BLOCK_ELEMENTS = 1 << 15


@dataclass(frozen=True)
class KnnModel:
    X: np.ndarray
    y: np.ndarray
    k: int
    task: str
    # The distinct training rows, transposed (features x distinct rows), and
    # each one's first min(count, k) training rows in ascending order
    # (distinct rows x width), padded with the index len(X).
    columns: np.ndarray
    members: np.ndarray
    n_classes: int | None = None

    def predict(self, X: np.ndarray) -> np.ndarray:
        return predict_knn(self, X)

    def predict_confidence(self, X: np.ndarray) -> np.ndarray:
        if self.task != "classification":
            raise ValidationError("confidence output requires a classification model")
        return predict_knn(self, X)


def fit_knn(X, y, *, k: int = 5, task: str = "regression", n_classes: int | None = None) -> KnnModel:
    check_params(k=k)
    X, y = training_data(X, y, task, n_classes)
    if k > len(X):
        raise ValidationError(f"k={k} exceeds the {len(X)} training rows")
    columns, members = _group_rows(X, k)
    return KnnModel(X=X, y=y, k=k, task=task, columns=columns, members=members, n_classes=n_classes)


def _sorted_groups(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A stable row order of ``X`` that puts equal rows next to each other, and
    where each run of equal rows starts in it.

    Rows are equal when they are equal cell for cell (+0.0 and -0.0 too), and
    a stable sort keeps each run's rows in ascending order.
    """
    n = len(X)
    order = np.lexsort(X.T) if X.shape[1] else np.arange(n)
    same = np.ones(max(n - 1, 0), dtype=bool)  # sorted row i + 1 equals sorted row i
    for column in X.T:
        column = column[order]
        same &= column[1:] == column[:-1]
    return order, np.flatnonzero(np.r_[n > 0, ~same])


def _group_rows(X: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of ``X`` with their first k row indices (see ``KnnModel``)."""
    n = len(X)
    order, starts = _sorted_groups(X)
    counts = np.diff(starts, append=n)
    slots = np.arange(min(k, counts.max()))
    members = np.take(order, starts[:, None] + slots, mode="clip")
    np.copyto(members, n, where=slots >= counts[:, None])
    return np.ascontiguousarray(X[order[starts]].T), members


def _lane_columns(p: int) -> tuple[list[int], list[int]]:
    """The feature columns each of the two lanes adds, in order (see the module docstring)."""
    lanes: tuple[list[int], list[int]] = ([], [])
    c = 0
    while p - c >= 8:
        for lane in (0, 1):
            lanes[lane].extend((c + 6 + lane, c + 4 + lane, c + 2 + lane, c + lane))
        c += 8
    for j in range(c, p):
        lanes[j % 2].append(j)
    return lanes


def _block_distances(
    queries: np.ndarray, columns: np.ndarray, d2: np.ndarray, lane: np.ndarray, square: np.ndarray
) -> np.ndarray:
    """Squared distances of ``queries`` to the rows of ``columns.T``, written into ``d2``.

    ``columns`` is the (distinct) training rows transposed (features x rows);
    ``d2``, ``lane`` and ``square`` are (query rows x rows) buffers, the last
    two scratch.  Lane 0 sums into ``d2``, lane 1 into ``lane``.
    """
    for total, cols in zip((d2, lane), _lane_columns(len(columns))):
        for i, j in enumerate(cols):
            out = square if i else total
            np.subtract(queries[:, j, None], columns[j], out=out)
            np.multiply(out, out, out=out)
            if i:
                np.add(total, square, out=total)
    if len(columns) == 0:
        d2.fill(0.0)
    elif len(columns) > 1:
        np.add(d2, lane, out=d2)
    return d2


def _nearest_in_block(d2: np.ndarray, scratch: np.ndarray, model: KnnModel) -> np.ndarray:
    """First k columns of a stable argsort of the distances to all training rows.

    ``d2`` holds the distances to the distinct rows (see the module docstring);
    ``scratch``, of the same shape, is partitioned in place.
    """
    k = model.k
    last = min(k, d2.shape[1]) - 1
    np.copyto(scratch, d2)
    scratch.partition(last, axis=1)
    kth = scratch[:, last : last + 1]
    # Every distinct row at most that far is a candidate; it stands for its
    # kept training rows, at least k per query row in all.  Order them by
    # (query row, distance, training row) and keep each query row's first k.
    # Padding sorts last: its distance is +inf and its index len(X).
    rows, groups = np.nonzero(d2 <= kth)
    cols = model.members[groups]
    dist = np.where(cols < len(model.X), d2[rows, groups][:, None], np.inf).ravel()
    cols = cols.ravel()
    rows = np.repeat(rows, model.members.shape[1])
    order = np.lexsort((cols, dist, rows))
    firsts = np.searchsorted(rows, np.arange(len(d2)))[:, None] + np.arange(k)
    return cols[order[firsts]]


def _distinct_rows(queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first row of each run of equal ``queries`` (see ``_sorted_groups``),
    and the run each row belongs to."""
    order, starts = _sorted_groups(queries)
    inverse = np.empty(len(queries), dtype=np.intp)
    inverse[order] = np.repeat(np.arange(len(starts)), np.diff(starts, append=len(queries)))
    return order[starts], inverse


def _neighbor_indices(model: KnnModel, queries: np.ndarray) -> np.ndarray:
    # Equal query rows have the same neighbors: search each distinct row
    # once, then hand its neighbors to every row of its run.
    firsts, inverse = _distinct_rows(queries)
    u = len(model.members)
    rows = max(1, min(len(firsts), _BLOCK_ELEMENTS // u))
    # Three buffers, not one (3 x block) array: once glibc serves them from
    # its heap (freeing the first call's mapped buffers raises its mmap
    # threshold past their size), one large request rarely fits a freed
    # hole and grows the heap instead.
    d2, lane, square = (np.empty((rows, u)) for _ in range(3))
    nearest = np.empty((len(firsts), model.k), dtype=np.intp)
    for start in range(0, len(firsts), rows):
        block = queries[firsts[start : start + rows]]
        m = len(block)
        _block_distances(block, model.columns, d2[:m], lane[:m], square[:m])
        nearest[start : start + m] = _nearest_in_block(d2[:m], lane[:m], model)
    return nearest[inverse]


def predict_knn(model: KnnModel, X) -> np.ndarray:
    """Mean neighbor target (regression) or vote fractions (classification)."""
    queries = query_data(X, model.X.shape[1])
    nearest = _neighbor_indices(model, queries)
    if model.task == "regression":
        return model.y[nearest].mean(axis=1)
    q, c = len(queries), model.n_classes
    votes = np.arange(q)[:, None] * c + model.y[nearest]
    return np.bincount(votes.ravel(), minlength=q * c).reshape(q, c) / model.k
