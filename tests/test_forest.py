import numpy as np
import pytest

from locbench.learners import (
    ForestModel,
    feature_importance,
    fit_forest,
    tree_depth,
)
from locbench.learners.tree import tree_gains
from reference_trees import leaf


def vote_leaf(class_idx, n_classes=4):
    counts = np.zeros(n_classes, dtype=int)
    counts[class_idx] = 1
    return leaf(counts, 1)


class TestForestRegression:
    def test_constant_targets_predict_exactly(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(30, 3))
        model = fit_forest(X, np.full(30, 4.5), n_trees=10, seed=1)
        assert all(tree.feature[0] == -1 for tree in model.trees)
        assert np.all(model.predict(X[:5]) == 4.5)

    def test_prediction_bounded_by_target_range(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(60, 3))
        y = rng.uniform(-5.0, 11.0, size=60)
        model = fit_forest(X, y, n_trees=25, seed=2)
        queries = rng.normal(scale=3.0, size=(40, 3))
        preds = model.predict(queries)
        assert np.all(preds >= y.min() - 1e-12)
        assert np.all(preds <= y.max() + 1e-12)

    def test_every_tree_respects_depth_cap(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(100, 4))
        y = rng.normal(size=100)
        model = fit_forest(X, y, n_trees=12, max_depth=4, seed=3)
        assert all(tree_depth(t) <= 4 for t in model.trees)

    def test_same_seed_reproduces_model_and_predictions(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(50, 3))
        y = rng.normal(size=50)
        q = rng.normal(size=(10, 3))
        a = fit_forest(X, y, n_trees=15, seed=7).predict(q)
        b = fit_forest(X, y, n_trees=15, seed=7).predict(q)
        assert np.array_equal(a, b)
        c = fit_forest(X, y, n_trees=15, seed=8).predict(q)
        assert not np.array_equal(a, c)


class TestForestClassification:
    def test_vote_fractions_from_hand_built_trees(self):
        model = ForestModel(
            trees=(vote_leaf(0), vote_leaf(0), vote_leaf(3)),
            task="classification",
            n_features=1,
            n_classes=4,
        )
        conf = model.predict_confidence([[0.0]])[0]
        assert conf.tolist() == [2 / 3, 0.0, 0.0, 1 / 3]

    def test_confidences_normalized_on_fitted_forest(self):
        rng = np.random.default_rng(4)
        X = np.vstack([rng.normal(0, 1, (30, 2)), rng.normal(4, 1, (30, 2))])
        y = np.repeat([0, 2], 30)
        model = fit_forest(
            X, y, task="classification", n_trees=20, n_classes=4, seed=5
        )
        conf = model.predict_confidence(rng.normal(2, 2, size=(15, 2)))
        assert np.allclose(conf.sum(axis=1), 1.0, atol=1e-9)
        assert (conf >= 0).all()

    def test_learns_separable_clusters(self):
        rng = np.random.default_rng(6)
        X = np.vstack([rng.normal(0, 0.5, (40, 2)), rng.normal(5, 0.5, (40, 2))])
        y = np.repeat([1, 3], 40)
        model = fit_forest(X, y, task="classification", n_trees=30, n_classes=4, seed=6)
        conf = model.predict_confidence([[0.0, 0.0], [5.0, 5.0]])
        assert np.argmax(conf[0]) == 1
        assert np.argmax(conf[1]) == 3


class TestFeatureImportance:
    def test_sums_to_one(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(80, 3))
        y = X[:, 0] * 3.0 + rng.normal(scale=0.1, size=80)
        model = fit_forest(X, y, n_trees=20, seed=9)
        report = feature_importance(model)
        assert sum(report.weights.values()) == pytest.approx(1.0, abs=1e-9)
        assert not report.no_splits

    def test_sole_informative_feature_takes_everything(self):
        # Feature 1 is constant, so every split must use feature 0.
        rng = np.random.default_rng(8)
        X = np.column_stack([rng.normal(size=50), np.full(50, 2.0)])
        y = X[:, 0] ** 2
        model = fit_forest(X, y, n_trees=10, seed=10, mtry=2)
        report = feature_importance(model, feature_names=("informative", "constant"))
        assert report.weights["informative"] == pytest.approx(1.0)
        assert report.weights["constant"] == 0.0

    def test_pure_leaf_forest_reports_uniform_with_flag(self):
        X = np.random.default_rng(9).normal(size=(20, 4))
        model = fit_forest(X, np.zeros(20), n_trees=5, seed=11)
        report = feature_importance(model)
        assert report.no_splits
        assert all(w == pytest.approx(0.25) for w in report.weights.values())

    def test_named_features(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(40, 2))
        y = X[:, 1]
        model = fit_forest(X, y, n_trees=10, seed=12, mtry=2)
        report = feature_importance(model, feature_names=("left", "right"))
        assert set(report.weights) == {"left", "right"}
        assert report.weights["right"] > report.weights["left"]

    def test_per_tree_gains_keep_right_first_summation_order(self):
        # Importance weights are reported at full precision, so each
        # feature's gains must be added in the order of a stack walk that
        # pushes the left child, then the right one.
        rng = np.random.default_rng(11)
        X = rng.normal(size=(150, 3))
        y = X[:, 0] + np.sin(3 * X[:, 1]) + rng.normal(scale=0.3, size=150)
        model = fit_forest(X, y, n_trees=8, seed=13, mtry=1)
        for tree in model.trees:
            expected = np.zeros(3)
            stack = [0]
            while stack:
                node = stack.pop()
                if tree.feature[node] >= 0:
                    expected[tree.feature[node]] += tree.gain[node]
                    stack.extend([tree.left[node], tree.right[node]])
            assert np.array_equal(tree_gains(tree, 3), expected)
