import numpy as np
import pytest

from locbench.data import ValidationError
from locbench.learners import fit_gbt, fit_tree


class TestGbt:
    def test_constant_target_reproduced(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(25, 3))
        model = fit_gbt(X, np.full(25, 6.5), n_trees=20)
        assert model.baseline == 6.5
        assert np.allclose(model.predict(X[:6]), 6.5, atol=1e-9)

    def test_single_stage_full_rate_equals_single_tree(self):
        # One stage at rate 1 fits the residuals of the mean; squared-error
        # splitting is shift-invariant, so predictions coincide with a
        # directly fitted tree of the same depth.
        rng = np.random.default_rng(1)
        X = rng.normal(size=(50, 2))
        y = rng.normal(size=50)
        boosted = fit_gbt(X, y, n_trees=1, rate=1.0, max_depth=4)
        single = fit_tree(X, y, max_depth=4)
        assert np.allclose(boosted.predict(X), single.predict(X), atol=1e-9)

    def test_training_loss_non_increasing_per_stage(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(80, 3))
        y = np.sin(X[:, 0]) + 0.5 * X[:, 1] + rng.normal(scale=0.2, size=80)
        model = fit_gbt(X, y, n_trees=60, max_depth=3, rate=0.1)
        losses = model.train_losses
        assert len(losses) == 61
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
        assert losses[-1] < losses[0]

    def test_more_stages_fit_training_data_better(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(60, 2))
        y = X[:, 0] ** 2 + X[:, 1]
        short = fit_gbt(X, y, n_trees=5, max_depth=3)
        long = fit_gbt(X, y, n_trees=80, max_depth=3)
        assert long.train_losses[-1] < short.train_losses[-1]

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValidationError):
            fit_gbt(np.empty((0, 2)), np.empty(0))

    def test_rate_out_of_range_rejected(self):
        X = np.zeros((5, 1))
        with pytest.raises(ValidationError):
            fit_gbt(X, np.zeros(5), rate=0.0)
        with pytest.raises(ValidationError):
            fit_gbt(X, np.zeros(5), rate=1.5)
