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


def lane_rule_distance(a, b):
    """Independent oracle of the kernel's summation order, in Python floats:
    two lanes, lane l holding the columns j = l (mod 2); per run of 8
    columns from c, lane l adds c+6+l, c+4+l, c+2+l, c+l; the rest go to
    their lane in ascending order; the distance is lane 0 + lane 1."""
    squares = [(x - y) * (x - y) for x, y in zip(a, b)]
    lanes = [0.0, 0.0]
    c = 0
    while len(squares) - c >= 8:
        for lane in (0, 1):
            for offset in (6, 4, 2, 0):
                lanes[lane] += squares[c + offset + lane]
        c += 8
    for j in range(c, len(squares)):
        lanes[j % 2] += squares[j]
    return lanes[0] + lanes[1]


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
def knn_cases(draw, p=st.integers(1, 4), scale=1.0):
    n = draw(st.integers(1, 25))
    p = draw(p)
    row = st.lists(st.integers(-2, 2), min_size=p, max_size=p)  # a small grid: many exact ties
    grid_rows = lambda count: scale * np.array(draw(st.lists(row, min_size=count, max_size=count)))
    X = grid_rows(n)
    copies = draw(st.lists(st.integers(0, n - 1), max_size=5))
    X = np.vstack([X, X[copies]])  # exact duplicate training rows
    queries = grid_rows(draw(st.integers(1, 30)))
    k = draw(st.integers(1, len(X)))
    block = draw(st.sampled_from([1, len(X), 3 * len(X) + 1, 1 << 20]))  # distance cells
    return X, queries, k, block


def signed_zeros(draw, rows):
    """``rows`` with each zero cell's sign drawn."""
    negative = draw(st.lists(st.booleans(), min_size=rows.size, max_size=rows.size))
    return np.where((rows == 0) & np.array(negative, dtype=bool).reshape(rows.shape), -0.0, rows)


@st.composite
def repeat_heavy_cases(draw):
    """Few distinct grid rows, each repeated up to 3k times in random order,
    with zero cells of either sign inside a group; the query rows repeat
    in the same way."""
    p = draw(st.integers(0, 6))
    k = draw(st.integers(1, 6))
    cell = st.sampled_from([-1.0, 0.0, 1.0, 2.0])
    row = st.lists(cell, min_size=p, max_size=p)

    def grid_rows(most):
        rows = draw(st.lists(row, min_size=1, max_size=most))
        return np.array(rows, dtype=float).reshape(len(rows), p)

    distinct = grid_rows(4)
    copies = draw(st.lists(st.integers(1, 3 * k), min_size=len(distinct), max_size=len(distinct)))
    X = np.repeat(distinct, copies, axis=0)
    X = signed_zeros(draw, X[draw(st.permutations(range(len(X))))])
    queries = grid_rows(6)
    picks = draw(st.lists(st.integers(0, len(queries) - 1), min_size=1, max_size=24))
    queries = signed_zeros(draw, queries[picks])
    u = len({tuple(r) for r in X.tolist()})  # -0.0 == 0.0, so signs do not split a row
    block = draw(st.sampled_from([1, u, 3 * u + 1, 1 << 20]))  # distance cells
    return X, queries, min(k, len(X)), block


class TestBlockedNeighbors:
    @staticmethod
    def check_against_whole_matrix(case, y):
        """Indices, means and votes against the whole-matrix stable argsort;
        returns the query rows each search block held."""
        X, queries, k, block = case
        expected = reference_neighbor_indices(X, queries, k)
        y_reg, y_cls = y / 7, y % 3
        regressor = fit_knn(X, y_reg, k=k)
        classifier = fit_knn(X, y_cls, k=k, task="classification", n_classes=3)
        searched = []
        search = neighbors._block_distances
        spy = lambda block, *args: searched.append(block.copy()) or search(block, *args)
        with mock.patch.object(neighbors, "_BLOCK_ELEMENTS", block):
            with mock.patch.object(neighbors, "_block_distances", spy):
                assert np.array_equal(neighbors._neighbor_indices(regressor, queries), expected)
            mean = predict_knn(regressor, queries)
            votes = predict_knn(classifier, queries)
        assert mean.tobytes() == y_reg[expected].mean(axis=1).tobytes()
        assert votes.tobytes() == reference_votes(y_cls, expected, 3, k).tobytes()
        return np.concatenate(searched) if searched else queries[:0]

    @staticmethod
    def labels(data, n):
        return np.array(data.draw(st.lists(st.integers(0, 8), min_size=n, max_size=n)))

    @staticmethod
    def distinct_count(rows):
        return len({tuple(r) for r in rows.tolist()})  # -0.0 == 0.0

    @settings(max_examples=300, deadline=None)
    @given(knn_cases(), st.data())
    def test_matches_whole_matrix_stable_argsort(self, case, data):
        self.check_against_whole_matrix(case, self.labels(data, len(case[0])))

    @settings(max_examples=300, deadline=None)
    @given(repeat_heavy_cases(), st.data())
    def test_repeated_rows_match_whole_matrix_stable_argsort(self, case, data):
        # Groups larger than k, labels that disagree within a group, and
        # query rows that repeat: each distinct one is searched once.
        searched = self.check_against_whole_matrix(case, self.labels(data, len(case[0])))
        queries = case[1]
        assert len(searched) == self.distinct_count(searched) == self.distinct_count(queries)

    @pytest.mark.parametrize("queries", ["all-one-row", "all-distinct", "one"])
    @pytest.mark.parametrize("block", ["one-cell", "u", "3u+1", "huge"])
    def test_query_repeats_at_every_block_size(self, queries, block):
        rng = np.random.default_rng(7)
        grid = np.array(
            [[a, b, c] for a in (-1.0, 0.0, 1.0) for b in (0.0, 2.0) for c in (0.0, 1.0)]
        )
        X = grid[rng.integers(0, 9, size=40)]  # 40 rows from 9 grid points
        X = np.where((X == 0) & (rng.random(X.shape) < 0.5), -0.0, X)
        queries = {
            "all-one-row": np.where(rng.random((30, 3)) < 0.5, -0.0, 0.0),  # signed zeros
            "all-distinct": grid[rng.permutation(len(grid))],
            "one": grid[[3]],
        }[queries]
        u = self.distinct_count(X)
        block = {"one-cell": 1, "u": u, "3u+1": 3 * u + 1, "huge": 1 << 20}[block]
        y = rng.integers(0, 9, size=len(X))
        searched = self.check_against_whole_matrix((X, queries, 5, block), y)
        assert len(searched) == self.distinct_count(searched) == self.distinct_count(queries)

    @settings(max_examples=300, deadline=None)
    @given(knn_cases(p=st.integers(0, 12), scale=0.1))
    def test_near_ties_match_both_references(self, case):
        # Scaled by 0.1, distances that tie on paper differ in their last
        # bits by summation order, so only einsum's order gives these ties.
        X, queries, k, block = case
        model = fit_knn(X, np.zeros(len(X)), k=k)
        with mock.patch.object(neighbors, "_BLOCK_ELEMENTS", block):
            nearest = neighbors._neighbor_indices(model, queries)
        assert np.array_equal(nearest, reference_neighbor_indices(X, queries, k))
        for q, found in zip(queries, nearest):
            d2 = lambda rows: sorted(float(np.sum((X[i] - q) ** 2)) for i in rows)
            assert d2(found) == pytest.approx(d2(brute_force_neighbors(X, q, k)), rel=1e-12)

    @pytest.mark.parametrize("p", range(25))
    def test_block_distances_follow_the_lane_rule_bit_for_bit(self, p):
        rng = np.random.default_rng(p)
        X = rng.normal(size=(40, p)) * rng.uniform(0.01, 100.0, size=p)
        queries = rng.normal(size=(6, p)) * 10.0
        d2 = neighbors._block_distances(
            queries, np.ascontiguousarray(X.T), *np.empty((3, len(queries), len(X)))
        )
        expected = [[lane_rule_distance(q, x) for x in X.tolist()] for q in queries.tolist()]
        assert d2.tolist() == expected

    @pytest.mark.parametrize("block", [1, 1 << 15])
    def test_no_features_gives_the_first_k_rows(self, block):
        model = fit_knn(np.zeros((6, 0)), np.arange(6.0), k=4)
        with mock.patch.object(neighbors, "_BLOCK_ELEMENTS", block):
            nearest = neighbors._neighbor_indices(model, np.zeros((3, 0)))
        assert nearest.tolist() == [[0, 1, 2, 3]] * 3
        assert predict_knn(model, np.zeros((3, 0))).tolist() == [1.5] * 3

    def test_zero_queries(self):
        model = fit_knn(np.zeros((4, 2)), np.zeros(4, int), k=2, task="classification", n_classes=3)
        assert predict_knn(model, np.zeros((0, 2))).shape == (0, 3)


class TestKnnMemory:
    """Peak memory is one distance block, whatever the number of queries."""

    # bytes: three 2**15-cell distance buffers and np.partition's copy are
    # 1 MiB, the transposed training rows 0.25 MiB, the per-query outputs
    # under 0.25 MiB; one whole-matrix difference tensor here is 512 MiB.
    LIMIT = 4 * 2**20

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
        # Only per-query arrays grow: the (queries x k) indices, the
        # (queries x classes) votes and the query grouping's order and inverse.
        assert doubled < peak + 2000 * (5 + 2 * 4) * 8
