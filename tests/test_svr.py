import numpy as np
import pytest

from locbench.data import ValidationError
from locbench.learners import fit_svr, predict_svr, standardize


def assert_non_increasing(values):
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


class TestSvrLinear:
    def test_noiseless_line_recovered_within_tube(self):
        x = np.linspace(0.0, 1.0, 20).reshape(-1, 1)
        y = 2.0 * x[:, 0] + 1.0
        stats, xs = standardize(x)
        model = fit_svr(xs, y, kernel="linear", C=1.0, epsilon=0.1, max_iter=500)
        held_out = stats.transform(np.array([[0.25], [0.55], [0.85]]))
        preds = predict_svr(model, held_out)
        expected = 2.0 * np.array([0.25, 0.55, 0.85]) + 1.0
        rmse = float(np.sqrt(np.mean((preds - expected) ** 2)))
        assert rmse < model.epsilon

    def test_objective_non_increasing(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 3))
        y = X @ np.array([1.0, -1.0, 0.5]) + rng.normal(scale=0.3, size=40)
        model = fit_svr(X, y, kernel="linear", max_iter=200)
        assert_non_increasing(model.objectives)
        assert model.objectives[-1] < model.objectives[0]

    def test_constant_targets_inside_tube_reach_zero_loss(self):
        X = np.random.default_rng(1).normal(size=(25, 2))
        y = np.full(25, 3.0)
        model = fit_svr(X, y, kernel="linear", epsilon=0.25, max_iter=300)
        # Zero predictor objective: C * sum(|3.0| - 0.25) = 25 * 2.75
        zero_objective = 25 * 2.75
        assert model.objectives[0] == pytest.approx(zero_objective)
        assert model.objectives[-1] <= zero_objective
        preds = predict_svr(model, X)
        assert np.all(np.abs(preds - 3.0) <= 0.25 + 1e-6)


class TestSvrRbf:
    def test_objective_non_increasing(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(30, 2))
        y = np.sin(X[:, 0])
        model = fit_svr(X, y, kernel="rbf", max_iter=200)
        assert_non_increasing(model.objectives)

    def test_default_gamma_is_reciprocal_feature_count(self):
        X = np.random.default_rng(3).normal(size=(10, 4))
        model = fit_svr(X, np.zeros(10), kernel="rbf", max_iter=5)
        assert model.gamma == pytest.approx(0.25)

    def test_fits_smooth_nonlinear_function(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(-2, 2, size=(60, 1))
        y = np.sin(2.0 * X[:, 0])
        model = fit_svr(X, y, kernel="rbf", C=10.0, gamma=2.0, epsilon=0.05, max_iter=800)
        preds = predict_svr(model, X)
        assert float(np.sqrt(np.mean((preds - y) ** 2))) < 0.2

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(20, 2))
        y = rng.normal(size=20)
        a = fit_svr(X, y, max_iter=50)
        b = fit_svr(X, y, max_iter=50)
        assert np.array_equal(a.beta, b.beta)
        assert a.b == b.b


class TestSvrValidation:
    def test_bad_parameters_rejected(self):
        X, y = np.zeros((5, 1)), np.zeros(5)
        with pytest.raises(ValidationError):
            fit_svr(X, y, C=0.0)
        with pytest.raises(ValidationError):
            fit_svr(X, y, epsilon=-0.1)
        with pytest.raises(ValidationError):
            fit_svr(X, y, kernel="poly")

    def test_rbf_row_limit(self, monkeypatch):
        from locbench.learners import svr

        assert svr._RBF_MAX_ROWS == 5000
        with pytest.raises(ValidationError, match="limited to 5000 training rows"):
            fit_svr(np.zeros((5001, 2)), np.zeros(5001))
        monkeypatch.setattr(svr, "_RBF_MAX_ROWS", 20)
        fit_svr(np.zeros((20, 2)), np.zeros(20), max_iter=1)
        with pytest.raises(ValidationError, match="limited to 20 training rows"):
            fit_svr(np.zeros((21, 2)), np.zeros(21), max_iter=1)
        # The linear kernel keeps no n x n matrix and has no limit.
        fit_svr(np.zeros((21, 2)), np.zeros(21), kernel="linear", max_iter=1)
