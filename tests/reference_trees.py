"""Two hand-encoded regression trees over the three distance features,
with literal nested-if transcriptions serving as independent oracles.

Feature order: 0 = distance_a, 1 = distance_b, 2 = distance_c.  The tree
encoding routes left on value > threshold; the oracles are written as
plain conditionals so they cannot share a traversal bug with eval_tree.
A brute-force split search serves the same role for fit_tree.
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
