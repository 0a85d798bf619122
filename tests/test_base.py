import re

import numpy as np
import pytest

import locbench.learners
from locbench.data import ZONES, ValidationError
from locbench.learners import (
    CLASSIFIER_FAMILIES,
    FAMILIES,
    MAX_EPOCHS,
    MAX_ITERS,
    MAX_LAYER_WIDTH,
    MAX_LAYERS,
    MAX_TREES,
    PARAMS,
    REGISTRY,
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

    @pytest.mark.parametrize(
        "column", [[1e308, 0.0, 0.0], [1e308, 1e308, 0.0], [-1e308, 1e308, 0.0]],
        ids=["std-overflows", "mean-overflows", "squares-overflow"],
    )
    def test_overflowing_column_is_refused_by_index(self, column):
        # Finite cells whose mean or squared deviations pass the float limit.
        X = np.column_stack([[1.0, 2.0, 3.0], column])
        with pytest.raises(ValidationError, match=r"^feature column 1: the mean or standard"):
            standardize(X)

    def test_query_cell_that_overflows_when_scaled_is_refused_by_index(self):
        # The training scale of column 1 is 0.5, so a finite 1.7e308 passes the
        # float limit in the divide; a NaN cell is left to the query check.
        stats, _ = standardize(np.array([[1.0, 0.0], [2.0, 1.0]]))
        assert stats.scale.tolist() == [0.5, 0.5]
        assert np.isnan(stats.transform(np.array([[np.nan, 1.0]]))[0, 0])
        with pytest.raises(ValidationError, match=r"^feature column 1: a value overflows"):
            stats.transform(np.array([[1.0, 2.0], [1.0, 1.7e308]]))


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
            ("random_forest", {"trees": MAX_TREES + 1}),
            ("gbt", {"trees": MAX_TREES + 1}),
            ("ann", {"layers": (MAX_LAYER_WIDTH + 1,)}),
            ("deep_learning", {"layers": (50, MAX_LAYER_WIDTH + 1)}),
            ("deep_learning", {"layers": (1,) * (MAX_LAYERS + 1)}),
            ("svr", {"c": float("inf")}),
            ("svr", {"epsilon": float("inf")}),
            ("svr", {"gamma": float("inf")}),
            ("gbt", {"trees": 0}),
            ("random_forest", {"trees": 1.5}),
            ("decision_tree", {"min_leaf": 0}),
            ("ann", {"batch": 0}),
            ("ann", {"epochs": 0}),
            ("ann", {"epochs": MAX_EPOCHS + 1}),
            ("ann", {"rate": 0.0}),
            ("ann", {"activation": "tanh"}),
            ("svr", {"iters": -1}),
            ("svr", {"iters": MAX_ITERS + 1}),
            ("svr", {"gamma": 0.0}),
        ],
    )
    def test_out_of_range_parameters_rejected(self, family, params):
        # Through a spec, and through the family's fit function under its keyword.
        [(key, value)] = params.items()
        keyword = PARAMS[key].keyword or key
        rule = f"must be {re.escape(PARAMS[key].rule)}, got {re.escape(repr(value))}$"
        with pytest.raises(ValidationError, match=f"^{family}: {key} {rule}"):
            LearnerSpec(family, params=params)
        fit = getattr(locbench.learners, REGISTRY[family].fit)
        with pytest.raises(ValidationError, match=f"^{keyword} {rule}"):
            fit(np.arange(12.0).reshape(6, 2), np.arange(6.0), **{keyword: value})

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

    def test_from_text_shares_the_size_limits(self):
        spec = LearnerSpec.from_text(
            f"family=deep_learning layers={MAX_LAYER_WIDTH},{MAX_LAYER_WIDTH}"
        )
        assert spec.resolved()["layers"] == (MAX_LAYER_WIDTH, MAX_LAYER_WIDTH)
        spec = LearnerSpec.from_text(f"family=gbt trees={MAX_TREES}")
        assert spec.resolved()["trees"] == MAX_TREES
        rule = rf"trees must be an integer from 1 to {MAX_TREES}"
        with pytest.raises(ValidationError, match=rule):
            LearnerSpec.from_text(f"family=random_forest trees={MAX_TREES + 1}")
        rule = rf"from 1 to {MAX_LAYER_WIDTH}, got \(3, {MAX_LAYER_WIDTH + 1}\)"
        with pytest.raises(ValidationError, match=rule):
            LearnerSpec.from_text(f"family=ann layers=3,{MAX_LAYER_WIDTH + 1}")

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


def _bad_training_sets():
    """One training set per shared rule, keyed by the message it must raise."""
    X, y = np.arange(12.0).reshape(6, 2), np.arange(6.0)
    nan_cell, nan_target = X.copy(), y.copy()
    nan_cell[2, 1] = nan_target[3] = np.nan
    return {
        "training features contain non-finite values": (nan_cell, y),
        "regression targets contain non-finite values": (X, nan_target),
        "cannot fit on an empty training set": (X[:0], y[:0]),
        "X and y disagree: (6, 2) vs (5,)": (X, y[:5]),
    }


def _quick_spec(family):
    return LearnerSpec(family, params={"epochs": 2} if family in ("ann", "deep_learning") else {})


class TestTrainingContract:
    """Every family takes its training set under the same rules and words."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("message", list(_bad_training_sets()))
    def test_bad_regression_set_rejected_alike(self, family, message):
        X, y = _bad_training_sets()[message]
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            fit_regressor(_quick_spec(family), X, y)

    @pytest.mark.parametrize("family", CLASSIFIER_FAMILIES)
    @pytest.mark.parametrize("label", [-1, 4, 1.5])
    def test_label_outside_the_classes_rejected_alike(self, family, label):
        X, y = np.arange(12.0).reshape(6, 2), np.array([0, 1, 2, 3, 0, label])
        rule = "be whole numbers$" if label == 1.5 else r"lie in 0\.\.3, got "
        with pytest.raises(ValidationError, match=f"^class labels must {rule}"):
            fit_classifier(_quick_spec(family), X, y, n_classes=4)


def _bad_queries():
    """One query per shared rule for a model fitted on 2 columns, with its message."""
    X = np.arange(12.0).reshape(6, 2)
    nan_cell = X.copy()
    nan_cell[2, 1] = np.nan
    return {
        "wide": (np.hstack([X, X[:, :1]]), "queries have shape (6, 3), expected 2 columns"),
        "narrow": (X[:, :1], "queries have shape (6, 1), expected 2 columns"),
        "nan": (nan_cell, "query features contain non-finite values"),
    }


class TestQueryContract:
    """Every fitted model checks its queries under the same rules and words."""

    X = np.arange(12.0).reshape(6, 2)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("case", list(_bad_queries()))
    def test_bad_regression_query_rejected_alike(self, family, case):
        model = fit_regressor(_quick_spec(family), self.X, np.arange(6.0))
        query, message = _bad_queries()[case]
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            model.predict(query)

    @pytest.mark.parametrize("family", CLASSIFIER_FAMILIES)
    @pytest.mark.parametrize("case", list(_bad_queries()))
    def test_bad_confidence_query_rejected_alike(self, family, case):
        model = fit_classifier(_quick_spec(family), self.X, [0, 1, 2, 3, 0, 1], n_classes=4)
        query, message = _bad_queries()[case]
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            model.predict_confidence(query)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_one_dimensional_query_is_one_row(self, family):
        model = fit_regressor(_quick_spec(family), self.X, np.arange(6.0))
        assert model.predict(self.X[3]).tolist() == model.predict(self.X[3:4]).tolist()


def test_package_surface_resolves():
    missing = [name for name in locbench.learners.__all__ if not hasattr(locbench.learners, name)]
    assert missing == []
    namespace: dict = {}
    exec("from locbench.learners import *", namespace)
    assert set(locbench.learners.__all__) <= set(namespace)


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
