import numpy as np
import pytest

from locbench.data import ValidationError
from locbench.learners import fit_ols


class TestOls:
    def test_two_points_slope_and_intercept(self):
        model = fit_ols(np.array([[0.0], [1.0]]), np.array([1.0, 3.0]))
        assert model.coef[0] == pytest.approx(2.0, abs=1e-6)
        assert model.intercept == pytest.approx(1.0, abs=1e-6)

    def test_constant_targets_flat_fit(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(20, 3))
        model = fit_ols(X, np.full(20, 5.0))
        assert np.allclose(model.coef, 0.0, atol=1e-6)
        assert model.intercept == pytest.approx(5.0, abs=1e-6)

    def test_residuals_orthogonal_to_features(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(50, 4))
        y = X @ np.array([1.0, -2.0, 0.5, 3.0]) + rng.normal(scale=0.3, size=50)
        model = fit_ols(X, y)
        residuals = y - model.predict(X)
        for j in range(4):
            assert abs(float(residuals @ X[:, j])) < 1e-6
        assert abs(float(residuals.sum())) < 1e-6  # intercept column too

    def test_recovers_exact_linear_map(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(30, 2))
        y = 4.0 * X[:, 0] - 1.5 * X[:, 1] + 7.0
        model = fit_ols(X, y)
        assert np.allclose(model.coef, [4.0, -1.5], atol=1e-6)
        assert model.intercept == pytest.approx(7.0, abs=1e-6)

    def test_duplicate_column_survives_via_jitter(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=40)
        X = np.column_stack([x, x])  # exactly collinear
        y = 2.0 * x + 1.0
        model = fit_ols(X, y)
        preds = model.predict(X)
        assert np.allclose(preds, y, atol=1e-4)

    def test_too_few_rows_rejected(self):
        with pytest.raises(ValidationError, match="at least"):
            fit_ols(np.zeros((3, 3)), np.zeros(3))
