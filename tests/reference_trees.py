"""Two hand-encoded regression trees over the three distance features,
with literal nested-if transcriptions serving as independent oracles.

Feature order: 0 = distance_a, 1 = distance_b, 2 = distance_c.  The tree
encoding routes left on value > threshold; the oracles are written as
plain conditionals so they cannot share a traversal bug with eval_tree.
A brute-force split search serves the same role for fit_tree's split
choice, and :func:`reference_fit_tree` -- the recursive grower fit_tree
replaced -- for whole trees, down to the generator's draws.
"""

from collections import Counter
from fractions import Fraction

import numpy as np

from locbench.learners import Tree


def leaf(value, count: int) -> Tree:
    """A one-node tree; ``value`` is a mean or a class-count table."""
    return Tree(
        feature=np.array([-1]),
        threshold=np.array([0.0]),
        left=np.array([-1]),
        right=np.array([-1]),
        value=np.array([value]),
        count=np.array([count]),
        gain=np.array([0.0]),
    )


def node(feature: int, threshold: float, left: Tree, right: Tree) -> Tree:
    """A split over two subtrees, laid out in preorder: root, left, right."""
    offset = 1 + len(left.feature)  # node id of the right subtree's root

    def shift(ids, by):
        return np.where(ids >= 0, ids + by, -1)

    return Tree(
        feature=np.concatenate([[feature], left.feature, right.feature]),
        threshold=np.concatenate([[threshold], left.threshold, right.threshold]),
        left=np.concatenate([[1], shift(left.left, 1), shift(right.left, offset)]),
        right=np.concatenate([[offset], shift(left.right, 1), shift(right.right, offset)]),
        value=np.concatenate([np.zeros_like(left.value[:1]), left.value, right.value]),
        count=np.concatenate([[left.count[0] + right.count[0]], left.count, right.count]),
        gain=np.concatenate([[0.0], left.gain, right.gain]),
    )


def x_coordinate_tree() -> Tree:
    return node(
        0,
        1.344,
        # distance_a > 1.344
        node(
            2,
            2.147,
            leaf(122.0, 30),
            node(2, 0.674, leaf(165.0, 28), leaf(122.0, 3)),
        ),
        # distance_a <= 1.344
        node(
            1,
            1.335,
            leaf(122.0, 30),
            node(
                0,
                1.076,
                node(
                    2,
                    1.798,
                    leaf(79.0, 24),
                    node(1, 1.112, leaf(165.0, 1), leaf(79.0, 14)),
                ),
                node(0, 0.408, leaf(122.0, 43), leaf(79.0, 2)),
            ),
        ),
    )


def x_coordinate_oracle(a: float, b: float, c: float) -> float:
    if a > 1.344:
        if c > 2.147:
            return 122.0
        if c > 0.674:
            return 165.0
        return 122.0
    if b > 1.335:
        return 122.0
    if a > 1.076:
        if c > 1.798:
            return 79.0
        if b > 1.112:
            return 165.0
        return 79.0
    if a > 0.408:
        return 122.0
    return 79.0


X_TREE_THRESHOLDS = {0: (0.408, 1.076, 1.344), 1: (1.112, 1.335), 2: (0.674, 1.798, 2.147)}


def y_coordinate_tree() -> Tree:
    return node(
        0,
        1.008,
        # distance_a > 1.008
        node(
            1,
            1.334,
            leaf(137.0, 19),
            node(
                1,
                1.286,
                node(0, 1.095, leaf(180.0, 16), leaf(137.0, 7)),
                leaf(180.0, 86),
            ),
        ),
        # distance_a <= 1.008
        node(
            2,
            1.631,
            leaf(223.0, 44),
            node(0, 0.439, leaf(223.0, 2), leaf(180.0, 1)),
        ),
    )


def y_coordinate_oracle(a: float, b: float, c: float) -> float:
    if a > 1.008:
        if b > 1.334:
            return 137.0
        if b > 1.286:
            if a > 1.095:
                return 180.0
            return 137.0
        return 180.0
    if c > 1.631:
        return 223.0
    if a > 0.439:
        return 223.0
    return 180.0


Y_TREE_THRESHOLDS = {0: (0.439, 1.008, 1.095), 1: (1.286, 1.334), 2: (1.631,)}


def crossing_grid(thresholds: dict[int, tuple[float, ...]]) -> list[tuple[float, float, float]]:
    """Feature values straddling every threshold, crossed over all features."""
    axes = []
    for f in (0, 1, 2):
        ts = sorted(thresholds.get(f, ()))
        values = [ts[0] - 0.1] if ts else [1.0]
        for lo, hi in zip(ts, ts[1:]):
            values.append((lo + hi) / 2.0)
        if ts:
            values.append(ts[-1] + 0.1)
            values.extend(ts)  # exact threshold values exercise the ties
        axes.append(values)
    return [(a, b, c) for a in axes[0] for b in axes[1] for c in axes[2]]


def _impurity(targets, task: str) -> Fraction:
    """Summed squared deviation (regression) or count-weighted Gini, exactly."""
    n = len(targets)
    if task == "regression":
        values = [Fraction(int(t)) for t in targets]
        return sum(v * v for v in values) - sum(values) ** 2 / n
    counts = Counter(int(t) for t in targets)
    return n - Fraction(sum(c * c for c in counts.values()), n)


def brute_force_split(X, y, *, task: str, min_leaf: int, features):
    """Exhaustive split search, independent of fit_tree.

    Tries every feature in ``features`` and every midpoint between
    consecutive distinct values, partitions rows by ``value > threshold``
    (the LEFT child), and scores each split by its exact impurity decrease
    over integer-valued targets.  Returns (best, runner_up): ``best`` is
    the (gain, feature, threshold) kept by a strictly-greater update in
    feature-then-threshold order, or None when no split leaves
    ``min_leaf`` rows on both sides; ``runner_up`` is the best gain of any
    other choice, counting "no split" as a gain of 0.
    """
    rows = [[float(v) for v in row] for row in X]
    targets = list(y)
    parent = _impurity(targets, task)
    best, runner_up = None, Fraction(0)
    for f in features:
        values = sorted({row[f] for row in rows})
        for lo, hi in zip(values, values[1:]):
            threshold = (lo + hi) / 2.0
            left = [t for row, t in zip(rows, targets) if row[f] > threshold]
            right = [t for row, t in zip(rows, targets) if not row[f] > threshold]
            if len(left) < min_leaf or len(right) < min_leaf:
                continue
            gain = parent - _impurity(left, task) - _impurity(right, task)
            if best is None or gain > best[0]:
                if best is not None:
                    runner_up = max(runner_up, best[0])
                best = (gain, f, threshold)
            else:
                runner_up = max(runner_up, gain)
    return best, runner_up


def _reference_best_split(xs, ys, parent, min_leaf, n_classes):
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


def reference_fit_tree(
    X, y, *, task="regression", max_depth=None, min_leaf=1, n_classes=None, mtry=None, rng=None
) -> Tree:
    """fit_tree's recursive grower, kept as an oracle for its results.

    It recurses into each child, recomputes every node's targets and
    class counts from its rows, and draws each searched node's feature
    subset with its own sorted ``rng.choice``.  Inputs are assumed valid.
    """
    X = np.asarray(X, dtype=float)
    if task == "classification":
        y = np.asarray(y).astype(int)
        inner_value = np.zeros(n_classes, dtype=np.intp)
    else:
        y = np.asarray(y).astype(float)
        n_classes = None
        inner_value = 0.0
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
                best = _reference_best_split(
                    xs[features], y[ids[features]], parent, min_leaf, n_classes
                )
            if best is None:
                features = np.arange(p)
                best = _reference_best_split(xs, y[ids], parent, min_leaf, n_classes)
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
