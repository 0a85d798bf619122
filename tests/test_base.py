import numpy as np
import pytest

import locbench.learners
from locbench.data import ZONES, ValidationError
from locbench.learners import (
    FAMILIES,
    FeatureMatrix,
    LearnerSpec,
    fit_classifier,
    fit_regressor,
    prediction_from_scores,
    standardize,
)


class TestStandardize:
    def test_two_point_column_by_hand(self):
        stats, transformed = standardize(np.array([[1.0], [3.0]]))
        assert stats.mean[0] == 2.0
        assert stats.scale[0] == 1.0  # population std of [1, 3]
        assert transformed[:, 0].tolist() == [-1.0, 1.0]

    def test_constant_column_passes_through(self):
        stats, transformed = standardize(np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]))
        assert transformed[:, 0].tolist() == [5.0, 5.0, 5.0]
        assert abs(transformed[:, 1].mean()) < 1e-9

    def test_idempotent_on_standardized_input(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(50, 3))
        _, once = standardize(X)
        _, twice = standardize(once)
        assert np.allclose(once, twice, atol=1e-9)

    def test_transformed_train_has_zero_mean_unit_std(self):
        rng = np.random.default_rng(1)
        X = rng.normal(loc=7.0, scale=3.0, size=(40, 4))
        _, transformed = standardize(X)
        assert np.allclose(transformed.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(transformed.std(axis=0), 1.0, atol=1e-9)

    def test_test_data_uses_training_statistics(self):
        train = np.array([[0.0], [2.0]])  # mean 1, std 1
        stats, _ = standardize(train)
        assert stats.transform(np.array([[3.0]]))[0, 0] == 2.0


class TestFeatureMatrix:
    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError, match="non-finite"):
            FeatureMatrix(values=np.array([[1.0, np.nan]]), columns=("a", "b"))

    def test_rejects_column_name_mismatch(self):
        with pytest.raises(ValidationError):
            FeatureMatrix(values=np.zeros((2, 3)), columns=("a", "b"))

    def test_shape_accessors(self):
        fm = FeatureMatrix(values=np.zeros((4, 2)), columns=("a", "b"))
        assert (fm.n_rows, fm.n_cols) == (4, 2)


class TestLearnerSpec:
    def test_defaults_resolve_per_family(self):
        assert LearnerSpec("knn").resolved()["k"] == 5
        forest = LearnerSpec("random_forest").resolved()
        assert (forest["trees"], forest["depth"]) == (100, 10)
        gbt = LearnerSpec("gbt").resolved()
        assert (gbt["trees"], gbt["depth"], gbt["rate"]) == (100, 5, 0.1)
        assert LearnerSpec("ann").resolved()["layers"] == (10,)
        assert LearnerSpec("deep_learning").resolved()["layers"] == (50, 50)
        assert LearnerSpec("svr").resolved()["c"] == 1.0

    def test_overrides_merge(self):
        spec = LearnerSpec("random_forest", params={"trees": 7})
        assert spec.resolved()["trees"] == 7
        assert spec.resolved()["depth"] == 10

    def test_unknown_family_and_params_rejected(self):
        with pytest.raises(ValidationError, match="unknown learner family"):
            LearnerSpec("boosted_stumps")
        with pytest.raises(ValidationError, match="does not accept"):
            LearnerSpec("knn", params={"trees": 3})

    @pytest.mark.parametrize(
        "family,params",
        [
            ("knn", {"k": 0}),
            ("random_forest", {"trees": 0}),
            ("random_forest", {"depth": 0}),
            ("gbt", {"rate": 0.0}),
            ("gbt", {"rate": 1.5}),
            ("ann", {"layers": (0,)}),
            ("svr", {"c": 0.0}),
            ("svr", {"epsilon": -1.0}),
            ("svr", {"kernel": "poly"}),
            ("knn", {"k": 2.5}),
            ("knn", {"k": True}),
            ("gbt", {"trees": 3.0}),
            ("ann", {"layers": (2.5,)}),
            ("svr", {"c": float("inf")}),
            ("svr", {"epsilon": float("inf")}),
            ("svr", {"gamma": float("inf")}),
        ],
    )
    def test_out_of_range_parameters_rejected(self, family, params):
        with pytest.raises(ValidationError):
            LearnerSpec(family, params=params)

    def test_text_round_trip(self):
        for spec in (
            LearnerSpec("knn", seed=7, params={"k": 3}),
            LearnerSpec("random_forest", seed=1, params={"trees": 50, "depth": 6}),
            LearnerSpec("svr", params={"c": 2.0, "epsilon": 0.05, "kernel": "linear"}),
            LearnerSpec("deep_learning", params={"layers": (20, 20), "rate": 0.05}),
        ):
            text = spec.to_text()
            back = LearnerSpec.from_text(text)
            assert back.family == spec.family
            assert back.seed == spec.seed
            assert back.resolved() == spec.resolved()

    def test_from_text_examples(self):
        spec = LearnerSpec.from_text("family=knn k=1 seed=9")
        assert (spec.family, spec.seed, spec.resolved()["k"]) == ("knn", 9, 1)
        spec = LearnerSpec.from_text("family=ann layers=15,5")
        assert spec.resolved()["layers"] == (15, 5)

    def test_from_text_requires_family(self):
        with pytest.raises(ValidationError, match="family"):
            LearnerSpec.from_text("k=3")
        with pytest.raises(ValidationError, match="key=value"):
            LearnerSpec.from_text("family=knn k")

    @pytest.mark.parametrize(
        "text,key",
        [("family=knn k=abc", "k"), ("family=knn seed=x", "seed"), ("family=knn foo=bar", "foo")],
    )
    def test_from_text_bad_value_names_the_key(self, text, key):
        with pytest.raises(ValidationError, match=rf"\b{key}\b"):
            LearnerSpec.from_text(text)


# The fit function and keywords of each family and task, for a spec with
# seed 7 and 4 classes; a family without a classification entry is
# regression-only.
_MLP = {"activation": "sigmoid", "epochs": 500, "rate": 0.1, "batch_size": 16, "seed": 7}
_DEEP = {"activation": "relu", "epochs": 300, "rate": 0.01, "batch_size": 16, "seed": 7}
_FOREST = {"n_trees": 100, "max_depth": 10, "min_leaf": 1, "seed": 7}
DISPATCH = {
    ("knn", "regression"): ("fit_knn", {"k": 5, "task": "regression"}),
    ("knn", "classification"): ("fit_knn", {"k": 5, "task": "classification", "n_classes": 4}),
    ("decision_tree", "regression"): (
        "fit_tree",
        {"task": "regression", "max_depth": 10, "min_leaf": 1},
    ),
    ("decision_tree", "classification"): (
        "fit_tree",
        {"task": "classification", "max_depth": 10, "min_leaf": 1, "n_classes": 4},
    ),
    ("random_forest", "regression"): ("fit_forest", {"task": "regression", **_FOREST}),
    ("random_forest", "classification"): (
        "fit_forest",
        {"task": "classification", "n_classes": 4, **_FOREST},
    ),
    ("gbt", "regression"): (
        "fit_gbt",
        {"n_trees": 100, "max_depth": 5, "rate": 0.1, "min_leaf": 1},
    ),
    ("linear_regression", "regression"): ("fit_ols", {}),
    ("svr", "regression"): (
        "fit_svr",
        {"C": 1.0, "epsilon": 0.1, "kernel": "rbf", "gamma": None, "max_iter": 500},
    ),
    ("ann", "regression"): ("fit_mlp", {"hidden": (10,), "task": "regression", **_MLP}),
    ("ann", "classification"): (
        "fit_mlp",
        {"hidden": (10,), "task": "classification", "n_classes": 4, **_MLP},
    ),
    ("deep_learning", "regression"): (
        "fit_mlp",
        {"hidden": (50, 50), "task": "regression", **_DEEP},
    ),
    ("deep_learning", "classification"): (
        "fit_mlp",
        {"hidden": (50, 50), "task": "classification", "n_classes": 4, **_DEEP},
    ),
}


class TestFitDispatch:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_fit_function_receives_the_keywords(self, family, task, monkeypatch):
        # The fit function is replaced on the package after import: the
        # dispatch must look it up at call time, as the benchmark's trace does.
        calls = []

        def record(name):
            def stub(*args, **kwargs):
                calls.append((name, args, kwargs))
                return "model"

            return stub

        for name in {fit for fit, _ in DISPATCH.values()}:
            monkeypatch.setattr(locbench.learners, name, record(name))
        spec = LearnerSpec(family, seed=7)
        X, y = np.zeros((4, 2)), np.zeros(4)
        if (family, task) not in DISPATCH:
            with pytest.raises(ValidationError, match="regression-only"):
                fit_classifier(spec, X, y, n_classes=4)
            assert calls == []
            return
        if task == "regression":
            assert fit_regressor(spec, X, y) == "model"
        else:
            assert fit_classifier(spec, X, y, n_classes=4) == "model"
        [(name, args, kwargs)] = calls
        assert args[0] is X and args[1] is y and len(args) == 2
        assert (name, kwargs) == DISPATCH[family, task]


class TestPredictionFromScores:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValidationError):
            prediction_from_scores(np.array([[0.5, 0.2, 0.1, 0.1]]))

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            prediction_from_scores(np.array([[-0.1, 0.6, 0.3, 0.2]]))

    def test_label_is_argmax(self):
        predicted, confidence = prediction_from_scores(np.array([[0.1, 0.2, 0.6, 0.1]]))
        assert ZONES[predicted[0]] == "office"
        assert confidence[0, ZONES.index("office")] == pytest.approx(0.6)
