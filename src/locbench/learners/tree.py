"""Binary decision trees grown by exhaustive greedy splitting, stored flat.

A fitted :class:`Tree` is a set of parallel per-node arrays.  Node 0 is
the root and nodes are numbered in depth-first preorder: a node, then
its whole left subtree, then its right subtree.  Leaves have feature -1
and children -1.

Regression splits minimize the summed squared deviation of each child
from its mean; classification splits minimize count-weighted Gini
impurity.  Candidate thresholds are the midpoints between consecutive
distinct sorted feature values.  Queries descend LEFT when the feature
value is strictly greater than the node threshold, right otherwise --
the same orientation as rule listings that print the ">" branch first.

Growth sorts each feature once per tree and hands every node its rows
already in sorted order per feature, so one vectorized pass searches
all candidate features of a node.  Prediction moves every query row
down one level per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data import ValidationError


@dataclass(frozen=True, eq=False)
class Tree:
    """A fitted tree as parallel arrays indexed by node id.

    ``value`` holds the leaf payloads: float means of shape ``(n_nodes,)``
    for regression, integer class counts of shape ``(n_nodes, n_classes)``
    for classification (zero at internal nodes).  ``count`` is the number
    of training samples reaching each node, and ``gain`` the training
    impurity decrease of each split (0 at leaves), in summed-squared-error
    or count-weighted Gini units.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    count: np.ndarray
    gain: np.ndarray

    def predict(self, X) -> np.ndarray:
        """Leaf payload per row: the mean (regression) or class counts."""
        return tree_predict(self, X)

    def predict_confidence(self, X) -> np.ndarray:
        """Per-row class fractions of the leaf's training counts."""
        if self.value.ndim != 2:
            raise ValidationError("confidence output requires a classification tree")
        counts = self.predict(X).astype(float)
        return counts / counts.sum(axis=1, keepdims=True)


def tree_apply(tree: Tree, X) -> np.ndarray:
    """Leaf id reached by every row of X, moving all rows one level per step."""
    X = np.asarray(X, dtype=float)
    node = np.zeros(len(X), dtype=np.intp)
    rows = np.arange(len(X))
    while rows.size:
        at = node[rows]
        feature = tree.feature[at]
        inner = feature >= 0
        rows, at, feature = rows[inner], at[inner], feature[inner]
        goes_left = X[rows, feature] > tree.threshold[at]
        node[rows] = np.where(goes_left, tree.left[at], tree.right[at])
    return node


def tree_predict(tree: Tree, X) -> np.ndarray:
    """Leaf payload for every row of X (leaf means for a regression tree)."""
    return tree.value[tree_apply(tree, X)]


def eval_tree(tree: Tree, features) -> float | np.ndarray:
    """Route one feature row to a leaf and return its payload."""
    x = np.asarray(features, dtype=float)
    node = 0
    while tree.feature[node] >= 0:
        goes_left = x[tree.feature[node]] > tree.threshold[node]
        node = tree.left[node] if goes_left else tree.right[node]
    return tree.value[node]


def tree_depth(tree: Tree) -> int:
    depth, level = 0, np.array([0])
    while True:
        level = level[tree.feature[level] >= 0]
        if not level.size:
            return depth
        level = np.concatenate([tree.left[level], tree.right[level]])
        depth += 1


def tree_gains(tree: Tree, n_features: int) -> np.ndarray:
    """Per-feature total impurity decrease over all splits of one tree.

    Gains are added in right-first preorder (a node, its right subtree,
    then its left subtree).  Importance weights are reported at full
    precision, so this summation order is part of their value.
    """
    n = len(tree.feature)
    # A preorder subtree spans [node, end), where end is one past its
    # rightmost leaf, found by pointer doubling along right children.
    last = np.where(tree.feature >= 0, tree.right, np.arange(n))
    while not np.array_equal(hop := last[last], last):
        last = hop
    end = last + 1
    # Subtrees covering a node are its own and its ancestors'.
    covering = np.cumsum(1 - np.bincount(end, minlength=n + 1)[:n])
    rank = n - 1 + covering - end  # position in right-first preorder
    order = np.argsort(rank)
    splits = order[tree.feature[order] >= 0]
    return np.bincount(tree.feature[splits], weights=tree.gain[splits], minlength=n_features)


def _best_split(xs, ys, parent, min_leaf, n_classes):
    """Best (gain, row, threshold) over a block of candidate features, or None.

    Row r of ``xs`` holds one feature's values over the node's samples in
    ascending order and row r of ``ys`` their targets.  Splitting between
    sorted positions i and i+1 sends the first i+1 samples (values <=
    threshold) RIGHT and the rest LEFT.  Exact gain ties resolve to the
    lowest row, then the lowest threshold: the first maximum in row-major
    order.  A best gain below zero yields None.
    """
    m = xs.shape[1]
    lo, hi = min_leaf - 1, m - min_leaf  # positions leaving min_leaf samples per side
    n_right = np.arange(lo + 1, hi + 1, dtype=float)
    n_left = m - n_right
    if n_classes is None:
        csum = ys.cumsum(axis=1)
        csq = (ys * ys).cumsum(axis=1)
        sse_right = csq[:, lo:hi] - csum[:, lo:hi] ** 2 / n_right
        sse_left = (csq[:, -1:] - csq[:, lo:hi]) - (csum[:, -1:] - csum[:, lo:hi]) ** 2 / n_left
        gain = parent - (sse_left + sse_right)
    else:
        # Integer counts keep every sum of squares exact.
        cum = (ys[:, :, None] == np.arange(n_classes)).cumsum(axis=1)
        right_counts = cum[:, lo:hi]
        left_counts = cum[:, -1:] - right_counts
        gini_right = n_right - (right_counts**2).sum(axis=2) / n_right
        gini_left = n_left - (left_counts**2).sum(axis=2) / n_left
        gain = parent - (gini_left + gini_right)
    gain = np.where(xs[:, lo:hi] < xs[:, lo + 1 : hi + 1], gain, -np.inf)
    row, pos = divmod(int(gain.argmax()), hi - lo)
    if not gain[row, pos] >= 0:
        return None
    threshold = (xs[row, lo + pos] + xs[row, lo + pos + 1]) / 2.0
    return float(gain[row, pos]), row, float(threshold)


def fit_tree(
    X,
    y,
    *,
    task: str = "regression",
    max_depth: int | None = None,
    min_leaf: int = 1,
    n_classes: int | None = None,
    mtry: int | None = None,
    rng: np.random.Generator | None = None,
) -> Tree:
    """Grow a tree on (X, y).

    For classification, ``y`` holds integer class indices and
    ``n_classes`` must be given; leaves then store class-count tables.
    ``mtry`` enables per-split feature subsampling from ``rng`` (used by
    forests); if the sampled subset admits no valid split the search
    falls back to all features before giving up.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if X.ndim != 2 or len(X) != len(y):
        raise ValidationError(f"X and y disagree: {X.shape} vs {y.shape}")
    if len(y) == 0:
        raise ValidationError("cannot fit a tree on an empty training set")
    if len(y) < min_leaf:
        raise ValidationError(f"need at least min_leaf={min_leaf} samples, got {len(y)}")
    if task == "classification":
        if n_classes is None:
            raise ValidationError("classification requires n_classes")
        y = y.astype(int)
        inner_value: float | np.ndarray = np.zeros(n_classes, dtype=np.intp)
    elif task == "regression":
        y = y.astype(float)
        n_classes = None
        inner_value = 0.0
    else:
        raise ValidationError(f"unknown task {task!r}")
    if mtry is not None and rng is None:
        raise ValidationError("feature subsampling requires an rng")

    n, p = X.shape
    nodes: list[list] = []  # [feature, threshold, left, right, value, count, gain]

    def grow(idx, ids, xs, keep, depth: int) -> None:
        """Append the subtree over samples ``idx`` (ascending) in preorder.

        Row f of ``ids[keep].reshape(p, -1)`` lists the same samples by
        ascending feature f, value ties by sample id, and ``xs`` holds
        their values likewise.  Only a node that is searched gathers them.
        """
        yn = y[idx]
        node = [-1, 0.0, -1, -1, inner_value, len(idx), 0.0]
        nodes.append(node)
        best = None
        if (
            (max_depth is None or depth < max_depth)
            and len(idx) >= 2 * min_leaf
            and yn.min() < yn.max()
        ):
            ids, xs = ids[keep].reshape(p, -1), xs[keep].reshape(p, -1)
            # Summed in ascending sample order, so the rounding never changes.
            if n_classes is None:
                parent = float((yn * yn).sum() - yn.sum() ** 2 / len(yn))
            else:
                counts = np.bincount(yn, minlength=n_classes)
                parent = float(len(yn) - (counts * counts).sum() / len(yn))
            if mtry is not None and mtry < p:
                features = np.sort(rng.choice(p, size=mtry, replace=False))
                best = _best_split(xs[features], y[ids[features]], parent, min_leaf, n_classes)
            if best is None:
                features = np.arange(p)
                best = _best_split(xs, y[ids], parent, min_leaf, n_classes)
        if best is None:
            if n_classes is None:
                node[4] = float(yn.mean())
            else:
                node[4] = np.bincount(yn, minlength=n_classes)
            return

        gain, row, threshold = best
        feature = int(features[row])
        goes_left = Xt[feature, idx] > threshold
        to_left = Xt[feature, ids] > threshold
        node[:4] = feature, threshold, len(nodes), -1
        node[6] = gain
        grow(idx[goes_left], ids, xs, to_left, depth + 1)
        node[3] = len(nodes)
        grow(idx[~goes_left], ids, xs, ~to_left, depth + 1)

    # A stable sort orders value ties by sample id; a node keeps the entries
    # of its parent's order that it owns, which is its own stable sort.
    Xt = np.ascontiguousarray(X.T)
    order = np.argsort(Xt, axis=1, kind="stable")
    xs = np.take_along_axis(Xt, order, axis=1)
    grow(np.arange(n), order, xs, np.ones_like(order, dtype=bool), 0)
    feature, threshold, left, right, value, count, gain = zip(*nodes)
    return Tree(
        feature=np.array(feature, dtype=np.intp),
        threshold=np.array(threshold, dtype=float),
        left=np.array(left, dtype=np.intp),
        right=np.array(right, dtype=np.intp),
        value=np.array(value),
        count=np.array(count, dtype=np.intp),
        gain=np.array(gain, dtype=float),
    )
