"""Bagged tree ensembles with per-split feature subsampling.

Each tree trains on a bootstrap sample (n draws with replacement) using
its own generator seeded by (master seed, tree index), so results do not
depend on the order trees are fitted in.  Regression predicts the mean
over trees; classification reports the fraction of trees voting for each
class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..data import ValidationError
from .base import check_params, query_data, training_data
from .tree import Tree, tree_apply, tree_gains


@dataclass(frozen=True)
class ForestModel:
    """A fitted ensemble; immutable and shareable across threads."""

    trees: tuple[Tree, ...]
    task: str
    n_features: int
    n_classes: int | None

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Mean over trees (regression) or per-class vote fractions (classification)."""
        return self._predict(X)

    def predict_confidence(self, X: np.ndarray) -> np.ndarray:
        if self.task != "classification":
            raise ValidationError("confidence output requires a classification forest")
        return self._predict(X)

    def _predict(self, X) -> np.ndarray:
        X = query_data(X, self.n_features)
        if self.task == "regression":
            total = np.zeros(len(X))
            for tree in self.trees:
                total += tree.value[tree_apply(tree, X)]
            return total / len(self.trees)
        votes = np.zeros((len(X), self.n_classes))
        rows = np.arange(len(X))
        for tree in self.trees:
            # argmax takes the first maximum: count ties vote for the lowest class.
            votes[rows, np.argmax(tree.value[tree_apply(tree, X)], axis=1)] += 1.0
        return votes / len(self.trees)


def default_mtry(n_features: int, task: str) -> int:
    """Features drawn per split: ceil(sqrt(p)) classifying, floor(p/3) regressing."""
    if task == "classification":
        return min(n_features, math.ceil(math.sqrt(n_features)))
    return max(1, n_features // 3)


def fit_forest(
    X,
    y,
    *,
    task: str = "regression",
    n_trees: int = 100,
    max_depth: int = 10,
    min_leaf: int = 1,
    seed: int = 42,
    n_classes: int | None = None,
    mtry: int | None = None,
) -> ForestModel:
    from .tree import fit_tree

    check_params(n_trees=n_trees, max_depth=max_depth, min_leaf=min_leaf)
    X, y = training_data(X, y, task, n_classes)
    if mtry is None:
        mtry = default_mtry(X.shape[1], task)

    n = len(y)
    trees = []
    for t in range(n_trees):
        # Seeding by (master, index) keeps every tree's randomness private,
        # so fitting order (or a parallel schedule) cannot change results.
        rng = np.random.default_rng([seed, t])
        boot = rng.integers(0, n, size=n)
        trees.append(
            fit_tree(
                X[boot],
                y[boot],
                task=task,
                max_depth=max_depth,
                min_leaf=min_leaf,
                n_classes=n_classes,
                mtry=mtry,
                rng=rng,
            )
        )
    return ForestModel(
        trees=tuple(trees), task=task, n_features=X.shape[1], n_classes=n_classes
    )


@dataclass(frozen=True)
class ImportanceReport:
    """Normalized per-feature importance weights.

    ``no_splits`` flags the degenerate case of a forest made purely of
    leaves, where the uniform fallback is reported instead of real
    impurity decreases.
    """

    weights: dict[str, float]
    no_splits: bool = False


def feature_importance(
    model: ForestModel, feature_names: tuple[str, ...] | None = None
) -> ImportanceReport:
    """Total training-impurity decrease per feature, normalized to sum to 1."""
    if feature_names is None:
        feature_names = tuple(str(i) for i in range(model.n_features))
    if len(feature_names) != model.n_features:
        raise ValidationError(
            f"{len(feature_names)} names for {model.n_features} features"
        )
    gains = np.zeros(model.n_features)
    for tree in model.trees:
        gains += tree_gains(tree, model.n_features)
    total = gains.sum()
    if total <= 0:
        uniform = 1.0 / model.n_features
        return ImportanceReport(
            weights={name: uniform for name in feature_names}, no_splits=True
        )
    weights = gains / total
    return ImportanceReport(
        weights={name: float(w) for name, w in zip(feature_names, weights)}
    )
