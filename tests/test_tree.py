import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import locbench.learners.tree
from locbench.data import ValidationError
from locbench.learners import (
    eval_tree,
    fit_forest,
    fit_tree,
    tree_apply,
    tree_depth,
)
from locbench.learners.tree import _FeatureSubsets
from reference_trees import (
    X_TREE_THRESHOLDS,
    Y_TREE_THRESHOLDS,
    brute_force_split,
    crossing_grid,
    leaf,
    reference_fit_tree,
    x_coordinate_oracle,
    x_coordinate_tree,
    y_coordinate_oracle,
    y_coordinate_tree,
)


class TestEvalTreeAgainstReferenceTrees:
    def test_worked_trace_through_x_tree(self):
        # a <= 1.344, b <= 1.335, a > 1.076, c > 1.798
        assert eval_tree(x_coordinate_tree(), (1.2, 1.1, 1.9)) == 79.0

    def test_worked_trace_through_y_tree(self):
        # a > 1.008, b > 1.334
        assert eval_tree(y_coordinate_tree(), (1.05, 1.34, 0.0)) == 137.0
        assert eval_tree(y_coordinate_tree(), (1.05, 1.34, 99.0)) == 137.0

    def test_x_tree_matches_oracle_on_threshold_crossing_grid(self):
        tree = x_coordinate_tree()
        grid = crossing_grid(X_TREE_THRESHOLDS)
        assert len(grid) >= 200
        for a, b, c in grid:
            assert eval_tree(tree, (a, b, c)) == x_coordinate_oracle(a, b, c)

    def test_y_tree_matches_oracle_on_threshold_crossing_grid(self):
        tree = y_coordinate_tree()
        for a, b, c in crossing_grid(Y_TREE_THRESHOLDS):
            assert eval_tree(tree, (a, b, c)) == y_coordinate_oracle(a, b, c)

    def test_exact_threshold_goes_right(self):
        # "greater than" is strict: landing exactly on the threshold takes
        # the <= branch.
        assert eval_tree(x_coordinate_tree(), (1.344, 1.4, 0.0)) == 122.0
        assert eval_tree(y_coordinate_tree(), (1.008, 0.0, 1.7)) == 223.0

    def test_single_leaf_tree_returns_its_value_everywhere(self):
        stump = leaf(7.5, 3)
        for x in ([0.0, 0.0, 0.0], [1e6, -1e6, 42.0]):
            assert eval_tree(stump, x) == 7.5

    def test_batch_routing_matches_single_row_walk(self):
        for tree, thresholds in (
            (x_coordinate_tree(), X_TREE_THRESHOLDS),
            (y_coordinate_tree(), Y_TREE_THRESHOLDS),
        ):
            grid = np.array(crossing_grid(thresholds))
            leaves = tree_apply(tree, grid)
            assert np.all(tree.feature[leaves] == -1)
            expected = [eval_tree(tree, row) for row in grid]
            assert tree.predict(grid).tolist() == expected
            assert tree_apply(tree, grid[:0]).shape == (0,)


class TestFitTreeRegression:
    def test_constant_targets_give_single_leaf(self):
        X = np.arange(10.0).reshape(-1, 1)
        root = fit_tree(X, np.full(10, 3.25))
        assert root.feature[0] == -1
        assert root.value[0] == 3.25
        assert root.count[0] == 10

    def test_hand_checked_depth_one_split(self):
        # Candidates are midpoints 1.5, 2.5, 3.5; only 2.5 separates the
        # two target levels perfectly.
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([0.0, 0.0, 10.0, 10.0])
        root = fit_tree(X, y, max_depth=1)
        assert root.feature[0] != -1
        assert root.threshold[0] == 2.5
        assert root.value[root.left[0]] == 10.0  # the > branch
        assert root.value[root.right[0]] == 0.0
        assert np.all(root.predict(X) == y)

    def test_exact_fit_when_rows_distinct(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(40, 3))
        y = rng.normal(size=40)
        root = fit_tree(X, y, max_depth=None, min_leaf=1)
        assert np.allclose(root.predict(X), y)

    def test_exact_fit_on_xor_pattern(self):
        # No single split improves the loss, but splitting must continue
        # while the node is impure and rows remain separable.
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0.0, 1.0, 1.0, 0.0])
        root = fit_tree(X, y)
        assert np.all(root.predict(X) == y)

    def test_max_depth_respected(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(200, 4))
        y = rng.normal(size=200)
        for depth in (1, 3, 6):
            assert tree_depth(fit_tree(X, y, max_depth=depth)) <= depth

    def test_min_leaf_respected(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(50, 2))
        y = rng.normal(size=50)
        root = fit_tree(X, y, min_leaf=5)
        is_leaf = root.feature == -1
        assert is_leaf.any()
        assert np.all(root.count[is_leaf] >= 5)

    def test_tie_breaks_prefer_lowest_feature_then_threshold(self):
        # Identical duplicated feature columns: gains are bit-identical, so
        # the split must land on feature 0.
        X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]])
        y = np.array([0.0, 0.0, 10.0, 10.0])
        root = fit_tree(X, y, max_depth=1)
        assert root.feature[0] == 0
        # Symmetric targets: splitting at 1.5 and 2.5 tie on gain; the
        # lower threshold wins.
        X2 = np.array([[1.0], [2.0], [3.0]])
        y2 = np.array([0.0, 5.0, 10.0])
        root2 = fit_tree(X2, y2, max_depth=1)
        assert root2.threshold[0] == 1.5

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValidationError):
            fit_tree(np.empty((0, 2)), np.empty(0))

    def test_split_gain_is_recorded(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([0.0, 0.0, 10.0, 10.0])
        root = fit_tree(X, y, max_depth=1)
        # Parent SSE is 100, children are pure: the full decrease.
        assert root.gain[0] == pytest.approx(100.0)

    @settings(max_examples=30, deadline=None)
    @given(
        data=st.lists(
            st.tuples(
                st.floats(min_value=-100, max_value=100, allow_nan=False),
                st.floats(min_value=-100, max_value=100, allow_nan=False),
            ),
            min_size=2,
            max_size=30,
            unique_by=lambda t: t[0],
        )
    )
    def test_training_loss_never_worse_than_leaf(self, data):
        X = np.array([[x] for x, _ in data])
        y = np.array([t for _, t in data])
        root = fit_tree(X, y, max_depth=3)
        fitted = root.predict(X)
        assert np.sum((y - fitted) ** 2) <= np.sum((y - y.mean()) ** 2) + 1e-9


class TestFitTreeClassification:
    def test_separable_one_dimension(self):
        X = np.array([[0.1], [0.2], [0.3], [1.1], [1.2], [1.3]])
        y = np.array([0, 0, 0, 2, 2, 2])
        root = fit_tree(X, y, task="classification", n_classes=3)
        counts_left = eval_tree(root, [1.15])
        assert np.argmax(counts_left) == 2
        counts_right = eval_tree(root, [0.15])
        assert np.argmax(counts_right) == 0

    def test_leaf_payload_is_class_count_table(self):
        X = np.array([[0.0], [0.0], [1.0]])
        y = np.array([0, 0, 1])
        root = fit_tree(X, y, task="classification", n_classes=3, max_depth=0)
        assert root.feature[0] == -1
        assert root.value[0].tolist() == [2, 1, 0]

    def test_pure_node_stops(self):
        X = np.array([[0.0], [1.0], [2.0]])
        root = fit_tree(X, np.array([1, 1, 1]), task="classification", n_classes=2)
        assert root.feature[0] == -1

    def test_requires_n_classes(self):
        with pytest.raises(ValidationError):
            fit_tree(np.zeros((3, 1)), np.array([0, 1, 0]), task="classification")

    def test_gini_prefers_clean_split(self):
        # Feature 0 separates perfectly; feature 1 is noise.
        rng = np.random.default_rng(8)
        X = np.column_stack([np.repeat([0.0, 1.0], 20), rng.normal(size=40)])
        y = np.repeat([0, 1], 20)
        root = fit_tree(X, y, task="classification", n_classes=2, max_depth=1)
        assert root.feature[0] == 0


def _depth_one_outcomes(X, y, task, min_leaf, mtry, seed):
    """Brute-force results fit_tree(max_depth=1) may match at the root.

    Mirrors fit_tree's draw: one sorted ``rng.choice`` when the root is
    splittable and ``mtry`` < p, then a search of all features when the
    drawn subset has no split.  An exact-zero best gain is ambiguous in
    floating point (it may round below zero and trigger the fallback), so
    then both the subset and the all-feature results are acceptable.
    """
    n, p = X.shape
    if n < 2 * min_leaf or min(y) == max(y):
        return [(None, 0)]
    features = range(p)
    if mtry is not None and mtry < p:
        features = np.sort(np.random.default_rng(seed).choice(p, size=mtry, replace=False))
    subset = brute_force_split(X, y, task=task, min_leaf=min_leaf, features=features)
    outcomes = [subset]
    if subset[0] is None or subset[0][0] == 0:
        outcomes.append(brute_force_split(X, y, task=task, min_leaf=min_leaf, features=range(p)))
    return outcomes


class TestFitTreeAgainstBruteForce:
    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        task=st.sampled_from(["regression", "classification"]),
        n=st.integers(min_value=1, max_value=12),
        p=st.integers(min_value=1, max_value=4),
        min_leaf=st.sampled_from([1, 2, 3]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_depth_one_split_matches_exhaustive_search(self, data, task, n, p, min_leaf, seed):
        # Half-unit feature values from a small range force duplicates.
        cells = st.integers(min_value=-3, max_value=3).map(lambda v: v / 2.0)
        row = st.lists(cells, min_size=p, max_size=p)
        X = np.array(data.draw(st.lists(row, min_size=n, max_size=n)))
        labels = st.integers(-4, 4) if task == "regression" else st.integers(0, 2)
        y = np.array(data.draw(st.lists(labels, min_size=n, max_size=n)))
        mtry = data.draw(st.none() | st.integers(min_value=1, max_value=p))
        assume(n >= min_leaf)
        kwargs = {"n_classes": 3} if task == "classification" else {}
        if mtry is not None:
            kwargs.update(mtry=mtry, rng=np.random.default_rng(seed))
        root = fit_tree(X, y, task=task, max_depth=1, min_leaf=min_leaf, **kwargs)

        split = root.feature[0] != -1
        fitted_gain = root.gain[0] if split else 0.0
        matched = []
        for best, runner_up in _depth_one_outcomes(X, y, task, min_leaf, mtry, seed):
            best_gain = best[0] if best is not None else 0
            if abs(fitted_gain - float(best_gain)) > 1e-9:
                continue
            if best_gain - runner_up > 1e-9:
                if not split or (root.feature[0], root.threshold[0]) != best[1:]:
                    continue
            matched.append(best)
        assert matched, (root.feature[0], root.threshold[0], fitted_gain)


class TestFitTreeValidation:
    def test_label_above_the_classes_rejected(self):
        with pytest.raises(ValidationError, match="class labels"):
            fit_tree(np.zeros((3, 1)), [0, 5, 1], task="classification", n_classes=3)

    def test_negative_label_rejected(self):
        with pytest.raises(ValidationError, match="class labels"):
            fit_tree(np.zeros((3, 1)), [0, -1, 1], task="classification", n_classes=3)

    def test_zero_mtry_rejected(self):
        X = np.arange(12.0).reshape(6, 2)
        with pytest.raises(ValidationError, match="mtry"):
            fit_forest(X, np.arange(6.0), n_trees=2, mtry=0)

    def test_zero_min_leaf_rejected(self):
        with pytest.raises(ValidationError, match="min_leaf"):
            fit_tree(np.arange(4.0).reshape(4, 1), np.arange(4.0), min_leaf=0)

    def test_nan_target_rejected(self):
        with pytest.raises(ValidationError, match="finite"):
            fit_tree(np.arange(4.0).reshape(4, 1), [0.0, np.nan, 1.0, 2.0])

    def test_mtry_of_p_or_more_searches_every_feature(self):
        X = np.array([[0.0, 1.0], [0.0, 2.0], [1.0, 3.0], [1.0, 4.0]])
        y = np.array([0.0, 0.0, 9.0, 9.0])
        plain = fit_tree(X, y)
        for mtry in (2, 5):
            rng = np.random.default_rng(0)
            assert_same_tree(fit_tree(X, y, mtry=mtry, rng=rng), plain)
            assert rng.integers(0, 2**62) == np.random.default_rng(0).integers(0, 2**62)


@pytest.mark.parametrize("task", ["regression", "classification"])
def test_midpoint_rounded_onto_the_upper_value(task):
    # Between these adjacent doubles the midpoint rounds up onto the upper
    # one, so a split there sends both values RIGHT.  Node counts and leaf
    # payloads follow the rows each node really holds, and a split that
    # would leave a side empty is not made.
    a = 1.0 + 2.0**-52
    b = np.nextafter(a, 2.0)
    assert (a + b) / 2.0 == b
    X = np.array([[a], [b], [5.0]])
    kwargs = {"n_classes": 2} if task == "classification" else {}
    tree = fit_tree(X, np.array([0, 1, 1]), task=task, **kwargs)
    assert tree.count.tolist() == [3, 1, 2]
    assert tree_apply(tree, X).tolist() == [2, 2, 1]
    expected = [[0, 0], [0, 1], [1, 1]] if task == "classification" else [0.0, 1.0, 0.5]
    assert tree.value.tolist() == expected


def assert_same_tree(fitted, expected) -> None:
    for name in ("feature", "threshold", "left", "right", "value", "count", "gain"):
        got, want = getattr(fitted, name), getattr(expected, name)
        assert (got.dtype, got.shape) == (want.dtype, want.shape), name
        assert got.tobytes() == want.tobytes(), name


class TestFitTreeAgainstReferenceGrower:
    """fit_tree grows the recursive grower's trees, array for array, and
    leaves the generator in the same state."""

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        task=st.sampled_from(["regression", "classification"]),
        n=st.integers(min_value=1, max_value=40),
        p=st.integers(min_value=1, max_value=5),
        min_leaf=st.sampled_from([1, 2, 3]),
        max_depth=st.sampled_from([None, 0, 1, 2, 3, 4]),
        repeats=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_trees_and_generator_match(
        self, data, task, n, p, min_leaf, max_depth, repeats, seed
    ):
        assume(n >= min_leaf)
        values = np.random.default_rng(seed).normal(size=(n, p))
        # Repeat-heavy values: a few half-units, so most sorted neighbours tie.
        X = np.round(values) / 2.0 if repeats else values
        if task == "classification":
            n_classes = data.draw(st.integers(min_value=1, max_value=4))
            labels = st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n)
            y = np.array(data.draw(labels))
            kwargs = {"n_classes": n_classes}
        else:
            targets = st.integers(-4, 4) if repeats else st.floats(-100, 100)
            y = np.array(data.draw(st.lists(targets, min_size=n, max_size=n)), dtype=float)
            kwargs = {}
        mtry = data.draw(st.none() | st.integers(min_value=1, max_value=p))
        fit_rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        kwargs.update(task=task, max_depth=max_depth, min_leaf=min_leaf, mtry=mtry)
        fitted = fit_tree(X, y, rng=fit_rng if mtry else None, **kwargs)
        expected = reference_fit_tree(X, y, rng=reference_rng if mtry else None, **kwargs)
        assert_same_tree(fitted, expected)
        assert fit_rng.integers(0, 2**62) == reference_rng.integers(0, 2**62)

    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_zero_gain_subset_split_is_kept(self, task):
        # Feature 0's only split leaves both children like the parent: gain
        # exactly 0, which is kept rather than falling back to feature 1.
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 2.0], [1.0, 3.0]])
        y = np.array([0, 1, 0, 1])
        kwargs = {"n_classes": 2} if task == "classification" else {}
        assert np.random.default_rng(1).choice(2, size=1, replace=False)[0] == 0
        kwargs.update(task=task, max_depth=1, mtry=1)
        fitted = fit_tree(X, y, rng=np.random.default_rng(1), **kwargs)
        expected = reference_fit_tree(X, y, rng=np.random.default_rng(1), **kwargs)
        assert_same_tree(fitted, expected)
        assert (fitted.feature[0], fitted.gain[0]) == (0, 0.0)

    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_small_forest_matches(self, task, monkeypatch):
        rng = np.random.default_rng(11)
        X = np.round(rng.normal(size=(120, 6)) * 2.0) / 2.0
        y = rng.integers(0, 3, size=120)
        kwargs = {"n_classes": 3} if task == "classification" else {}
        fitted = fit_forest(X, y, task=task, n_trees=6, max_depth=6, seed=5, **kwargs)
        # The forest imports fit_tree when called, so it picks up the oracle.
        monkeypatch.setattr(locbench.learners.tree, "fit_tree", reference_fit_tree)
        expected = fit_forest(X, y, task=task, n_trees=6, max_depth=6, seed=5, **kwargs)
        for got, want in zip(fitted.trees, expected.trees, strict=True):
            assert_same_tree(got, want)


class TestFeatureSubsets:
    """Block draws equal successive sorted ``rng.choice`` subsets, and the
    rewind leaves the stream where those calls would."""

    @staticmethod
    def check(p, mtry, count, seed=3):
        reference, blocked = np.random.default_rng(seed), np.random.default_rng(seed)
        subsets = _FeatureSubsets(blocked, p, mtry)
        for _ in range(count):
            expected = np.sort(reference.choice(p, size=mtry, replace=False))
            assert subsets.draw().tolist() == expected.tolist()
        subsets.rewind()
        assert blocked.integers(0, 2**62) == reference.integers(0, 2**62)

    @pytest.mark.parametrize("p", range(1, 13))
    def test_every_subset_size(self, p):
        for mtry in range(1, p + 1):
            for count in (0, 1, 64, 150):
                self.check(p, mtry, count, seed=p * 100 + mtry)

    @pytest.mark.parametrize(
        "p, mtry",
        [
            (10_000, 201),  # Floyd's algorithm at the largest p drawn in blocks
            (10_001, 200),  # Floyd's algorithm, one subset at a time
            (10_001, 201),  # numpy's partial shuffle
        ],
    )
    def test_large_feature_counts(self, p, mtry):
        self.check(p, mtry, 70)
