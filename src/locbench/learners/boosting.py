"""Gradient boosted regression trees (stagewise least squares).

The model starts from the target mean; each stage fits a depth-limited
tree to the current residuals and adds ``rate`` times its output.  With
least-squares leaves and a rate in (0, 1] every stage can only lower the
training loss, so the recorded per-stage losses are non-increasing.
Training is deterministic (no row subsampling).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import check_params, query_data, training_data
from .tree import Tree, fit_tree, tree_apply


@dataclass(frozen=True)
class GbtModel:
    baseline: float
    trees: tuple[Tree, ...]
    rate: float
    train_losses: tuple[float, ...]  # training MSE after 0, 1, ..., n stages
    n_features: int

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = query_data(X, self.n_features)
        out = np.full(len(X), self.baseline)
        for tree in self.trees:
            out += self.rate * tree.value[tree_apply(tree, X)]
        return out


def fit_gbt(
    X,
    y,
    *,
    n_trees: int = 100,
    max_depth: int = 5,
    rate: float = 0.1,
    min_leaf: int = 1,
) -> GbtModel:
    check_params(n_trees=n_trees, max_depth=max_depth, rate=rate, min_leaf=min_leaf)
    X, y = training_data(X, y)

    baseline = float(y.mean())
    current = np.full(len(y), baseline)
    losses = [float(np.mean((y - current) ** 2))]
    trees = []
    for _ in range(n_trees):
        residual = y - current
        tree = fit_tree(X, residual, task="regression", max_depth=max_depth, min_leaf=min_leaf)
        current = current + rate * tree.value[tree_apply(tree, X)]
        trees.append(tree)
        losses.append(float(np.mean((y - current) ** 2)))
    return GbtModel(
        baseline=baseline,
        trees=tuple(trees),
        rate=rate,
        train_losses=tuple(losses),
        n_features=X.shape[1],
    )
