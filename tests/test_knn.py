import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locbench.data import ZONES, ValidationError
from locbench.learners import fit_knn, neighbors, predict_knn, prediction_from_scores


def brute_force_neighbors(X, q, k):
    """Independent oracle: exhaustive sort of all squared distances,
    distance ties resolved by the lower training row index."""
    d2 = [float(np.sum((row - q) ** 2)) for row in X]
    order = sorted(range(len(X)), key=lambda i: (d2[i], i))
    return order[:k]


def reference_neighbor_indices(X, queries, k):
    """The whole-matrix selection blocked k-NN replaces: one difference
    tensor for all queries, then a full stable argsort of every row."""
    diff = queries[:, None, :] - X[None, :, :]
    d2 = np.einsum("qnp,qnp->qn", diff, diff)
    return np.argsort(d2, axis=1, kind="stable")[:, :k]


def reference_votes(y, nearest, n_classes, k):
    conf = np.zeros((len(nearest), n_classes))
    for row, idx in enumerate(nearest):
        conf[row] = np.bincount(y[idx], minlength=n_classes) / k
    return conf


class TestKnnRegression:
    def test_exact_match_with_k1(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.5]])
        y = np.array([10.0, 20.0, 30.0])
        model = fit_knn(X, y, k=1)
        assert predict_knn(model, [[1.0, 1.0]])[0] == 20.0

    def test_prediction_is_neighbor_mean(self):
        X = np.array([[0.0], [1.0], [10.0]])
        y = np.array([2.0, 4.0, 100.0])
        model = fit_knn(X, y, k=2)
        assert predict_knn(model, [[0.4]])[0] == pytest.approx(3.0)

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(0)
        for trial in range(100):
            n = int(rng.integers(2, 51))
            p = int(rng.integers(1, 6))
            k = int(rng.integers(1, n + 1))
            X = rng.normal(size=(n, p))
            y = rng.normal(size=n)
            q = rng.normal(size=p)
            model = fit_knn(X, y, k=k)
            expected = float(np.mean(y[brute_force_neighbors(X, q, k)]))
            assert predict_knn(model, [q])[0] == pytest.approx(expected, rel=1e-12)

    def test_distance_ties_take_lowest_index(self):
        X = np.array([[1.0], [-1.0], [1.0]])  # rows 0 and 2 are identical
        y = np.array([5.0, 7.0, 9.0])
        model = fit_knn(X, y, k=2)
        # Query at 0: all three rows are distance 1; rows 0 and 1 win.
        assert predict_knn(model, [[0.0]])[0] == pytest.approx(6.0)


class TestKnnClassification:
    def test_vote_fractions(self):
        X = np.array([[0.0], [0.1], [5.0]])
        y = np.array([0, 0, 1])
        model = fit_knn(X, y, k=3, task="classification", n_classes=4)
        conf = predict_knn(model, [[0.0]])[0]
        assert conf.tolist() == [2 / 3, 1 / 3, 0.0, 0.0]
        assert conf.sum() == pytest.approx(1.0, abs=1e-9)

    def test_exact_match_confidence_one(self):
        X = np.array([[0.0], [5.0]])
        y = np.array([2, 3])
        model = fit_knn(X, y, k=1, task="classification", n_classes=4)
        conf = predict_knn(model, [[5.0]])[0]
        assert conf.tolist() == [0.0, 0.0, 0.0, 1.0]

    def test_matches_brute_force_votes(self):
        rng = np.random.default_rng(1)
        for trial in range(100):
            n = int(rng.integers(2, 51))
            p = int(rng.integers(1, 6))
            k = int(rng.integers(1, n + 1))
            X = rng.normal(size=(n, p))
            y = rng.integers(0, 4, size=n)
            q = rng.normal(size=p)
            model = fit_knn(X, y, k=k, task="classification", n_classes=4)
            neighbors = brute_force_neighbors(X, q, k)
            expected = np.bincount(y[neighbors], minlength=4) / k
            assert np.allclose(predict_knn(model, [q])[0], expected)

    def test_argmax_tie_goes_to_earlier_class(self):
        scores = np.array([0.5, 0.5, 0.0, 0.0])
        assert ZONES[prediction_from_scores(scores[None])[0][0]] == "bedroom"


class TestKnnValidation:
    def test_k_larger_than_n_rejected(self):
        with pytest.raises(ValidationError, match="exceeds"):
            fit_knn(np.zeros((3, 1)), np.zeros(3), k=4)

    def test_k_below_one_rejected(self):
        with pytest.raises(ValidationError):
            fit_knn(np.zeros((3, 1)), np.zeros(3), k=0)

    def test_non_finite_training_features_rejected(self):
        with pytest.raises(ValidationError, match="non-finite"):
            fit_knn(np.array([[0.0], [np.inf]]), np.zeros(2), k=1)

    def test_non_finite_regression_targets_rejected(self):
        with pytest.raises(ValidationError, match="non-finite"):
            fit_knn(np.zeros((2, 1)), np.array([0.0, np.nan]), k=1)

    def test_class_labels_outside_range_rejected(self):
        with pytest.raises(ValidationError, match="0..2"):
            fit_knn(np.zeros((2, 1)), np.array([0, 3]), k=1, task="classification", n_classes=3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_rejected(self, bad):
        model = fit_knn(np.arange(6.0).reshape(3, 2), np.zeros(3), k=2)
        with pytest.raises(ValidationError, match="non-finite"):
            predict_knn(model, [[0.0, 0.0], [bad, 1.0]])

    @pytest.mark.parametrize("columns", [1, 3])
    def test_query_column_count_must_match(self, columns):
        model = fit_knn(np.arange(6.0).reshape(3, 2), np.zeros(3), k=2)
        with pytest.raises(ValidationError, match="expected 2 columns"):
            predict_knn(model, np.zeros((4, columns)))


@st.composite
def knn_cases(draw):
    n = draw(st.integers(1, 25))
    p = draw(st.integers(1, 4))
    row = st.lists(st.integers(-2, 2), min_size=p, max_size=p)  # a small grid: many exact ties
    grid_rows = lambda count: np.array(draw(st.lists(row, min_size=count, max_size=count)), float)
    X = grid_rows(n)
    copies = draw(st.lists(st.integers(0, n - 1), max_size=5))
    X = np.vstack([X, X[copies]])  # exact duplicate training rows
    queries = grid_rows(draw(st.integers(1, 30)))
    k = draw(st.integers(1, len(X)))
    block = draw(st.sampled_from([1, len(X) * p, 3 * len(X) * p + 1, 1 << 20]))
    return X, queries, k, block


class TestBlockedNeighbors:
    @settings(max_examples=300, deadline=None)
    @given(knn_cases(), st.data())
    def test_matches_whole_matrix_stable_argsort(self, case, data):
        X, queries, k, block = case
        expected = reference_neighbor_indices(X, queries, k)
        y = np.array(data.draw(st.lists(st.integers(0, 8), min_size=len(X), max_size=len(X))))
        y_reg, y_cls = y / 7, y % 3
        regressor = fit_knn(X, y_reg, k=k)
        classifier = fit_knn(X, y_cls, k=k, task="classification", n_classes=3)
        with mock.patch.object(neighbors, "_BLOCK_ELEMENTS", block):
            assert np.array_equal(neighbors._neighbor_indices(regressor, queries), expected)
            mean = predict_knn(regressor, queries)
            votes = predict_knn(classifier, queries)
        assert mean.tobytes() == y_reg[expected].mean(axis=1).tobytes()
        assert votes.tobytes() == reference_votes(y_cls, expected, 3, k).tobytes()

    def test_zero_queries(self):
        model = fit_knn(np.zeros((4, 2)), np.zeros(4, int), k=2, task="classification", n_classes=3)
        assert predict_knn(model, np.zeros((0, 2))).shape == (0, 3)


class TestKnnMemory:
    """Peak memory is one distance block, whatever the number of queries."""

    LIMIT = 32 * 2**20  # bytes; one whole-matrix difference tensor here is 512 MiB

    @staticmethod
    def traced_peak(model, queries):
        tracemalloc.start()
        try:
            predict_knn(model, queries)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_is_bounded_and_flat_in_queries(self):
        rng = np.random.default_rng(0)
        model = fit_knn(rng.normal(size=(8000, 4)), rng.integers(0, 4, 8000), k=5,
                        task="classification", n_classes=4)
        queries = rng.normal(size=(4000, 4))
        peak = self.traced_peak(model, queries[:2000])
        doubled = self.traced_peak(model, queries)
        assert peak < self.LIMIT
        # Only the (queries x k) indices and (queries x classes) votes grow.
        assert doubled < peak + 2000 * (5 + 2 * 4) * 8
