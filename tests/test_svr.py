import hashlib

import numpy as np
import pytest

from locbench.cli import run_cli
from locbench.data import ValidationError
from locbench.learners import TrainingDivergedError, fit_svr, standardize


def assert_non_increasing(values):
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


class TestSvrLinear:
    def test_noiseless_line_recovered_within_tube(self):
        x = np.linspace(0.0, 1.0, 20).reshape(-1, 1)
        y = 2.0 * x[:, 0] + 1.0
        stats, xs = standardize(x)
        model = fit_svr(xs, y, kernel="linear", C=1.0, epsilon=0.1, max_iter=500)
        held_out = stats.transform(np.array([[0.25], [0.55], [0.85]]))
        preds = model.predict(held_out)
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
        preds = model.predict(X)
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
        preds = model.predict(X)
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


@pytest.mark.filterwarnings("error")
class TestSvrDivergence:
    """A huge C overflows the optimizer: that is divergence, with no numpy warning."""

    @pytest.mark.parametrize("kernel", ["linear", "rbf"])
    def test_huge_c_raises_divergence(self, kernel):
        rng = np.random.default_rng(0)
        X, y = rng.normal(size=(50, 3)), rng.normal(size=50) * 100.0
        with pytest.raises(TrainingDivergedError, match="svr objective became non-finite"):
            fit_svr(X, y, C=1e308, kernel=kernel)

    def test_cli_prints_only_the_divergence_line(self, tmp_path, capsys):
        data = tmp_path / "beacons.csv"
        assert run_cli(["synth", "--rows", "200", "--out", str(data)]) == 0
        argv = ["coords", "--data", str(data), "--model", "svr", "--c", "1e308"]
        assert run_cli(argv + ["--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "training diverged: svr objective became non-finite\n"



def fit_digest(X, y, **kwargs) -> str:
    """SHA-256 of a fit's objectives, w (linear) or beta (rbf), b and predict(X[:7])."""
    model = fit_svr(X, y, **kwargs)
    coef = model.w if model.kernel == "linear" else model.beta
    parts = (np.array(model.objectives), coef, np.float64(model.b), model.predict(X[:7]))
    return hashlib.sha256(b"".join(a.tobytes() for a in parts)).hexdigest()


# fit_digest of seeded fits, by (kernel, C, epsilon, max_iter).
SVR_BYTES = {
    ("linear", 1.0, 0.1, 200): "608080a11d1a57b829dd6db6b4759cab59daaa79f56823e4dd8a6389e3fce82b",
    ("linear", 10.0, 0.05, 400): "35ea57694542cd0bd2769249a7fdcb706a2cd533370713bd2171263fcb663e93",
    ("linear", 0.3, 0.0, 60): "26a1c719ec2cf1f05d2ec757095a3001193b0d0a73a28ea65c9ee01618fcc4c0",
    ("rbf", 1.0, 0.1, 200): "c8c381390f5d8a0cb8988bd54d1e46c83e34c450a638e9aea231cfdd8c9f04de",
    ("rbf", 10.0, 0.05, 400): "a03713b4c93fecad23f0d0c38ed8548276640801e5458206610adbc5090fbf17",
    ("rbf", 0.3, 0.0, 60): "2fcf70501a56ad1327e715c8b557bfad98497f6a85567da2de3c97a7298c39e3",
}


@pytest.mark.parametrize("kernel,C,epsilon,max_iter", list(SVR_BYTES))
def test_fit_bytes_are_pinned(kernel, C, epsilon, max_iter):
    rng = np.random.default_rng(19)
    X = rng.normal(size=(40, 3))
    y = np.sin(X[:, 0]) + 0.5 * X[:, 1] + rng.normal(scale=0.1, size=40)
    digest = fit_digest(X, y, C=C, epsilon=epsilon, kernel=kernel, max_iter=max_iter)
    assert digest == SVR_BYTES[kernel, C, epsilon, max_iter]


# With one row and gamma 1 the kernel matrix is [[1]]: both kernels fit alike.
HALVED_BYTES = dict.fromkeys(
    ("linear", "rbf"), "29a824d359fd20b19104d9fd684ed904ee382a62246832f1423d1582a4cfaacd"
)


@pytest.mark.parametrize("kernel", ["linear", "rbf"])
def test_step_after_failed_halvings_is_pinned(kernel):
    # One iteration of this one-row fit fails all 50 halvings; the step
    # they leave carries into the next iteration.
    digest = fit_digest(np.ones((1, 1)), np.ones(1), epsilon=0.0, kernel=kernel, max_iter=50)
    assert digest == HALVED_BYTES[kernel]
