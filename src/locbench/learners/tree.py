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

Growth sorts each feature once per tree, then pops nodes off an explicit
stack: a split pushes its right child, then its left, so nodes come off
in preorder.  A pending node holds its parent's sample ids in sorted
order per feature and a mask of those it owns; only a node that is
searched applies the mask, and it reads the searched features' values
from the feature matrix through those ids, so one vectorized pass
searches all candidate features of a node.  Classification passes class
counts down: one bincount at the root, then the split search's running
counts of the first k sorted samples are the right child's table and the
parent's minus them the left child's, so purity, the parent's Gini and a
leaf's table need no gather.  Regression keeps each node's rows in
ascending sample order and sums their targets in that order.

With ``mtry``, feature subsets are drawn 64 nodes at a time by one
``integers`` call that makes the draws numpy's ``choice`` would make
(see :class:`_FeatureSubsets`), so each subset equals a per-node
``np.sort(rng.choice(p, mtry, replace=False))``.  When the tree is done
the generator is rewound to before the last block and redraws only the
subsets used, which leaves it where per-node draws would.

Prediction moves every query row down one level per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data import ValidationError
from .base import query_data, training_data


@dataclass(frozen=True, eq=False)
class Tree:
    """A fitted tree as parallel arrays indexed by node id.

    ``value`` holds the leaf payloads: float means of shape ``(n_nodes,)``
    for regression, integer class counts of shape ``(n_nodes, n_classes)``
    for classification (zero at internal nodes).  ``count`` is the number
    of training samples reaching each node, and ``gain`` the training
    impurity decrease of each split (0 at leaves), in summed-squared-error
    or count-weighted Gini units.  ``n_features`` is the width of the
    training matrix; ``fit_tree`` sets it, and a tree built without it
    takes queries of any width.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    count: np.ndarray
    gain: np.ndarray
    n_features: int | None = None

    def predict(self, X) -> np.ndarray:
        """Leaf payload per row: the mean (regression) or class counts."""
        return self.value[tree_apply(self, query_data(X, self.n_features))]

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


#: Feature subsets drawn per generator call.
_SUBSET_BLOCK = 64
#: numpy's ``choice`` draws a subset by Floyd's algorithm for every subset
#: size up to this many features; past it, subsets are drawn one at a time.
_FLOYD_MAX_FEATURES = 10_000


class _FeatureSubsets:
    """Sorted feature subsets equal to successive ``np.sort(rng.choice(p, mtry,
    replace=False))`` calls, drawn a block at a time.

    For p <= 10,000 numpy draws a value uniformly from [0, j] for j = p -
    mtry, ..., p - 1 and takes j when the value is taken already (Floyd's
    algorithm), then shuffles the subset with draws from [0, i] for i =
    mtry - 1, ..., 1.  One ``rng.integers`` call over those bounds, tiled,
    makes a whole block's draws in the same order.  Sorting discards the
    shuffle, but its draws are consumed all the same.  Past 10,000
    features numpy may use a partial shuffle instead, so there each
    subset is its own ``choice`` call.
    """

    def __init__(self, rng: np.random.Generator, p: int, mtry: int):
        self.rng, self.p, self.mtry = rng, p, mtry
        self.bounds = np.concatenate([np.arange(p - mtry + 1, p + 1), np.arange(mtry, 1, -1)])
        self.block = self.state = None
        self.used = _SUBSET_BLOCK

    def draw(self) -> np.ndarray:
        if self.p > _FLOYD_MAX_FEATURES:
            return np.sort(self.rng.choice(self.p, size=self.mtry, replace=False))
        if self.used == _SUBSET_BLOCK:
            self.state = self.rng.bit_generator.state
            draws = self._integers(_SUBSET_BLOCK)
            rows = np.arange(_SUBSET_BLOCK)
            taken = np.zeros((_SUBSET_BLOCK, self.p), dtype=bool)
            for step, j in enumerate(range(self.p - self.mtry, self.p)):
                taken[rows, np.where(taken[rows, draws[:, step]], j, draws[:, step])] = True
            # Each row holds mtry marks, so its column indices are its sorted subset.
            self.block = taken.nonzero()[1].reshape(_SUBSET_BLOCK, self.mtry)
            self.used = 0
        self.used += 1
        return self.block[self.used - 1]

    def _integers(self, count: int) -> np.ndarray:
        return self.rng.integers(0, np.tile(self.bounds, count)).reshape(count, -1)

    def rewind(self) -> None:
        """Leave the generator where one ``choice`` call per subset would."""
        if self.state is not None:
            self.rng.bit_generator.state = self.state
            self._integers(self.used)


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

    For classification, ``y`` holds integer class indices in ``0 ..
    n_classes - 1`` and leaves store class-count tables; regression
    targets must be finite.  ``mtry`` enables per-split feature
    subsampling from ``rng`` (used by forests); an ``mtry`` of p or more
    searches every feature.  If the sampled subset admits no valid split
    the search falls back to all features before giving up.
    """
    X, y = training_data(X, y, task, n_classes)
    if min_leaf < 1:
        raise ValidationError(f"min_leaf must be >= 1, got {min_leaf}")
    if len(y) < min_leaf:
        raise ValidationError(f"need at least min_leaf={min_leaf} samples, got {len(y)}")
    if mtry is not None:
        if mtry < 1:
            raise ValidationError(f"mtry must be >= 1, got {mtry}")
        if rng is None:
            raise ValidationError("feature subsampling requires an rng")

    n, p = X.shape
    classify = task == "classification"
    inner_value = np.zeros(n_classes, dtype=np.intp) if classify else 0.0
    subsets = _FeatureSubsets(rng, p, mtry) if mtry is not None and mtry < p else None
    every = np.arange(p)
    # Split positions by node size m: sorted positions lo..hi-1 leave
    # min_leaf samples per side, and position i sends i + 1 samples RIGHT.
    spans: dict[int, tuple] = {}

    # A stable sort orders value ties by sample id; a node keeps the entries
    # of its parent's order that it owns, which is its own stable sort.
    Xt = np.ascontiguousarray(X.T)
    order = np.argsort(Xt, axis=1, kind="stable")
    if classify:
        onehot = np.eye(n_classes, dtype=np.intp)[y]
        stat = np.bincount(y, minlength=n_classes)
    else:
        stat = np.arange(n)
    nodes: list[list] = []  # [feature, threshold, left, right, value, count, gain]
    # A pending node: its parent's per-feature sorted ids (p, parent size)
    # and the mask of those it owns (None at the root), its class counts
    # (classification) or ascending rows (regression), its size, its depth
    # and, for a right child, its parent's node id.
    stack = [(order, None, stat, n, 0, -1)]
    while stack:
        ids, keep, stat, m, depth, parent = stack.pop()
        if parent >= 0:
            nodes[parent][3] = len(nodes)
        node = [-1, 0.0, -1, -1, inner_value, m, 0.0]
        nodes.append(node)
        if not classify:
            yn = y[stat]
        searched = (max_depth is None or depth < max_depth) and m >= 2 * min_leaf
        if classify:
            searched = searched and np.count_nonzero(stat) > 1
        else:
            searched = searched and np.minimum.reduce(yn) < np.maximum.reduce(yn)
        k = 0
        if searched:
            if keep is not None:
                ids = ids[keep].reshape(p, -1)
            if m not in spans:
                n_right = np.arange(min_leaf, m - min_leaf + 1, dtype=float)
                spans[m] = min_leaf - 1, m - min_leaf, n_right, m - n_right
            lo, hi, n_right, n_left = spans[m]
            if classify:
                sq_total = stat @ stat
                parent_loss = m - sq_total / m
            else:  # summed in ascending sample order, so the rounding never changes
                parent_loss = np.add.reduce(yn * yn) - np.add.reduce(yn) ** 2 / m
            features = every if subsets is None else subsets.draw()
            while True:
                sub = ids if features is every else ids[features]
                xs = Xt[features[:, None], sub]
                if classify:
                    # Integer counts keep every sum of squares exact.
                    cum = np.add.accumulate(onehot[sub], axis=1)
                    right = cum[:, lo:hi]
                    sq_right = np.einsum("fmc,fmc->fm", right, right)
                    # The left counts are stat - right: expand the square.
                    sq_left = sq_right - 2 * (right @ stat) + sq_total
                    gini_right = n_right - sq_right / n_right
                    gain = parent_loss - ((n_left - sq_left / n_left) + gini_right)
                else:
                    ys = y[sub]
                    csum = np.add.accumulate(ys, axis=1)
                    csq = np.add.accumulate(ys * ys, axis=1)
                    rsum, rsq = csum[:, lo:hi], csq[:, lo:hi]
                    sse_right = rsq - rsum**2 / n_right
                    sse_left = (csq[:, -1:] - rsq) - (csum[:, -1:] - rsum) ** 2 / n_left
                    gain = parent_loss - (sse_left + sse_right)
                # Exact ties go to the first maximum in row-major order:
                # the lowest feature, then the lowest threshold.
                gain = np.where(xs[:, lo:hi] < xs[:, lo + 1 : hi + 1], gain, -np.inf)
                best = int(gain.argmax())
                top = gain.flat[best]
                if top >= 0 or features is every:
                    break
                features = every  # the subset has no split: search them all
            row, pos = divmod(best, hi - lo)
            if top >= 0:
                a, b = xs[row, lo + pos], xs[row, lo + pos + 1]
                threshold = (a + b) / 2.0
                k = lo + pos + 1  # the first k samples by this feature go RIGHT
                if not a <= threshold < b:  # the midpoint rounded onto b, or a + b overflowed
                    k = int(np.searchsorted(xs[row], threshold, side="right"))
        if not 0 < k < m:
            node[4] = stat if classify else float(np.add.reduce(yn) / m)
            continue

        feature = int(features[row])
        to_left = Xt[feature, ids] > threshold
        node[:4] = feature, float(threshold), len(nodes), -1
        node[6] = float(top)
        if classify:
            right_stat = cum[row, k - 1].copy()  # a view would keep all of cum alive
            left_stat = stat - right_stat
        else:
            goes_left = Xt[feature, stat] > threshold
            left_stat, right_stat = stat[goes_left], stat[~goes_left]
        stack.append((ids, ~to_left, right_stat, k, depth + 1, len(nodes) - 1))
        stack.append((ids, to_left, left_stat, m - k, depth + 1, -1))
    if subsets is not None:
        subsets.rewind()
    feature, threshold, left, right, value, count, gain = zip(*nodes)
    return Tree(
        feature=np.array(feature, dtype=np.intp),
        threshold=np.array(threshold, dtype=float),
        left=np.array(left, dtype=np.intp),
        right=np.array(right, dtype=np.intp),
        value=np.array(value),
        count=np.array(count, dtype=np.intp),
        gain=np.array(gain, dtype=float),
        n_features=p,
    )
