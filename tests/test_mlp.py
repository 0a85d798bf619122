import numpy as np
import pytest
from reference_mlp import reference_fit

from locbench.learners import TrainingDivergedError, fit_mlp
from locbench.learners.mlp import MlpNetwork


def numerical_gradient(net, X, y, h=1e-5):
    params = net.get_params()
    grad = np.zeros_like(params)
    for i in range(len(params)):
        bumped = params.copy()
        bumped[i] += h
        net.set_params(bumped)
        up = net.loss(X, y)
        bumped[i] -= 2 * h
        net.set_params(bumped)
        down = net.loss(X, y)
        grad[i] = (up - down) / (2 * h)
    net.set_params(params)
    return grad


def max_relative_error(analytic, numeric):
    scale = np.maximum(1e-8, np.abs(analytic) + np.abs(numeric))
    return float(np.max(np.abs(analytic - numeric) / scale))


def five_sample_problem(task, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(5, 3))
    if task == "regression":
        y = rng.normal(size=(5, 1))
    else:
        y = rng.integers(0, 4, size=5)
    return X, y


class TestGradients:
    @pytest.mark.parametrize("task", ["regression", "classification"])
    @pytest.mark.parametrize("activation", ["sigmoid", "relu"])
    def test_analytic_matches_central_differences_at_init(self, task, activation):
        X, y = five_sample_problem(task)
        out = 1 if task == "regression" else 4
        net = MlpNetwork((3, 8, out), activation, task, seed=3)
        loss, gw, gb = net.loss_and_grads(X, y)
        analytic = net.flat_grads(gw, gb)
        numeric = numerical_gradient(net, X, y)
        assert max_relative_error(analytic, numeric) < 1e-4

    def test_gradient_still_matches_after_ten_steps(self):
        X, y = five_sample_problem("regression", seed=4)
        net = MlpNetwork((3, 8, 1), "sigmoid", "regression", seed=5)
        for _ in range(10):
            _, gw, gb = net.loss_and_grads(X, y)
            for W, g in zip(net.weights, gw):
                W -= 0.1 * g
            for b, g in zip(net.biases, gb):
                b -= 0.1 * g
        _, gw, gb = net.loss_and_grads(X, y)
        analytic = net.flat_grads(gw, gb)
        numeric = numerical_gradient(net, X, y)
        assert max_relative_error(analytic, numeric) < 1e-4

    def test_two_hidden_layer_gradients(self):
        X, y = five_sample_problem("classification", seed=6)
        net = MlpNetwork((3, 6, 6, 4), "relu", "classification", seed=7)
        _, gw, gb = net.loss_and_grads(X, y)
        analytic = net.flat_grads(gw, gb)
        numeric = numerical_gradient(net, X, y)
        assert max_relative_error(analytic, numeric) < 1e-4


class TestTraining:
    def test_learns_linear_regression_map(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(120, 2))
        y = 2.0 * X[:, 0] - 1.0 * X[:, 1] + 0.5
        model = fit_mlp(X, y, hidden=(10,), activation="sigmoid", epochs=400, rate=0.2, seed=9)
        preds = model.predict(X)
        rmse = float(np.sqrt(np.mean((preds - y) ** 2)))
        assert rmse < 0.25 * float(np.std(y))

    def test_regression_rescaling_inverts(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(60, 2))
        y = 100.0 + 50.0 * X[:, 0]  # far outside [0, 1]
        model = fit_mlp(X, y, epochs=300, rate=0.2, seed=10)
        preds = model.predict(X)
        assert preds.mean() == pytest.approx(y.mean(), rel=0.2)
        assert preds.min() >= y.min() - 30
        assert preds.max() <= y.max() + 30

    def test_classification_confidences_sum_to_one(self):
        rng = np.random.default_rng(10)
        X = np.vstack([rng.normal(0, 1, (30, 2)), rng.normal(3, 1, (30, 2))])
        y = np.repeat([0, 1], 30)
        model = fit_mlp(
            X, y, epochs=80, rate=0.3, task="classification", n_classes=4, seed=11
        )
        conf = model.predict_confidence(rng.normal(1.5, 2.0, size=(20, 2)))
        assert np.allclose(conf.sum(axis=1), 1.0, atol=1e-9)
        assert (conf >= 0).all()

    def test_separable_classes_learned(self):
        rng = np.random.default_rng(11)
        X = np.vstack([rng.normal(-2, 0.4, (40, 2)), rng.normal(2, 0.4, (40, 2))])
        y = np.repeat([0, 3], 40)
        model = fit_mlp(
            X, y, hidden=(10,), epochs=200, rate=0.4, task="classification", n_classes=4, seed=12
        )
        conf = model.predict_confidence(np.array([[-2.0, -2.0], [2.0, 2.0]]))
        assert np.argmax(conf[0]) == 0
        assert np.argmax(conf[1]) == 3

    def test_divergence_reports_epoch(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(30, 2)) * 50.0
        y = rng.normal(size=30) * 1e6
        with pytest.raises(TrainingDivergedError, match="epoch") as info:
            fit_mlp(X, y, hidden=(20,), activation="relu", epochs=200, rate=1.0, seed=13)
        assert info.value.epoch is not None

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(50, 2))
        y = X[:, 0]
        a = fit_mlp(X, y, epochs=50, seed=14).predict(X)
        b = fit_mlp(X, y, epochs=50, seed=14).predict(X)
        assert np.array_equal(a, b)


def reference_problem(task, n=175, seed=21):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    if task == "regression":
        return X, 40.0 + 25.0 * X[:, 0] - 10.0 * X[:, 1] * X[:, 2]
    return X, rng.integers(0, 4, size=n)


class TestReferenceTrainer:
    """``fit_mlp`` against ``tests/reference_mlp.py``, byte for byte."""

    @pytest.mark.parametrize("batch_size", [25, 16, 1, 178])
    @pytest.mark.parametrize("hidden", [(10,), (50, 50), (7, 3)])
    @pytest.mark.parametrize("task", ["regression", "classification"])
    @pytest.mark.parametrize("activation", ["sigmoid", "relu"])
    def test_epoch_losses_and_parameters_match(self, activation, task, hidden, batch_size):
        X, y = reference_problem(task)
        kwargs = dict(
            hidden=hidden, activation=activation, epochs=6, rate=0.3,
            batch_size=batch_size, seed=17, task=task,
            n_classes=4 if task == "classification" else None,
        )
        losses, weights, biases = reference_fit(X, y, **kwargs)
        model = fit_mlp(X, y, **kwargs)
        assert np.array(model.epoch_losses).tobytes() == np.array(losses).tobytes()
        for got, want in zip(model.net.weights + model.net.biases, weights + biases):
            assert got.tobytes() == want.tobytes()

    def test_divergence_at_the_same_epoch(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(30, 2)) * 5.0
        y = rng.normal(size=30) * 1e6
        kwargs = dict(
            hidden=(20,), activation="relu", epochs=200, rate=0.1, batch_size=16,
            seed=13, task="regression",
        )
        # The oracle's loss overflows on the way to divergence, as expected.
        with pytest.raises(TrainingDivergedError) as want, np.errstate(over="ignore"):
            reference_fit(X, y, **kwargs)
        with pytest.raises(TrainingDivergedError) as got:
            fit_mlp(X, y, **kwargs)
        assert got.value.epoch == want.value.epoch
