import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locbench.data import ValidationError
from locbench.evaluation import (
    ConfusionMatrix,
    RegressionReport,
    classification_report,
    confusion_matrix,
    horizontal_error,
    rank_models,
    regression_report,
    rmse,
)
from locbench.render import pct

ZONES = ("bedroom", "kitchen", "office", "toilet")

# Reference four-zone matrices with known statistics, frozen as test data.
# Rows are predicted, columns are true.
MATRIX_59 = [
    [17, 1, 0, 0],
    [3, 14, 1, 0],
    [0, 0, 8, 1],
    [0, 5, 0, 9],
]
MATRIX_53 = [
    [19, 4, 0, 0],
    [1, 11, 0, 1],
    [0, 0, 5, 0],
    [2, 1, 1, 8],
]


def report_from_counts(counts):
    return classification_report(ConfusionMatrix(classes=ZONES, counts=np.array(counts)))


class TestConfusionMatrix:
    """Labels are indices into ZONES: 0 bedroom, 1 kitchen, 2 office, 3 toilet."""

    def test_counts_orientation(self):
        cm = confusion_matrix(truth=[0, 0, 1], predicted=[0, 1, 1])
        # predicted kitchen / true bedroom lands at [1, 0]
        assert cm.counts[1, 0] == 1
        assert cm.counts[0, 0] == 1
        assert cm.counts[1, 1] == 1
        assert cm.total == 3

    def test_reference_matrix_counts(self):
        truth, predicted = [], []
        for p, row in enumerate(MATRIX_59):
            for t, count in enumerate(row):
                truth.extend([t] * count)
                predicted.extend([p] * count)
        cm = confusion_matrix(truth, predicted)
        assert cm.counts.tolist() == MATRIX_59
        assert cm.total == 59
        assert np.diag(cm.counts).tolist() == [17, 14, 8, 9]

    def test_perfect_classifier_is_diagonal(self):
        labels = np.array([0, 1, 2, 3, 2])
        cm = confusion_matrix(labels, labels)
        assert cm.trace == cm.total == 5
        assert classification_report(cm).accuracy == 1.0

    def test_half_right(self):
        report = classification_report(confusion_matrix([0, 1], [0, 0]))
        assert report.accuracy == 0.5

    def test_length_mismatch_and_empty(self):
        with pytest.raises(ValidationError):
            confusion_matrix([0], [])
        with pytest.raises(ValidationError):
            confusion_matrix([], [])

    @pytest.mark.parametrize(
        "truth, predicted",
        [([0, 4], [0, 1]), ([0, 1], [-1, 1]), ([0, 1], [0, 9]), (["bedroom"], [0]), ([0.0], [0])],
    )
    def test_labels_outside_the_class_indices_rejected(self, truth, predicted):
        with pytest.raises(ValidationError):
            confusion_matrix(truth, predicted)


class TestClassificationReport:
    def test_59_sample_reference_statistics(self):
        report = report_from_counts(MATRIX_59)
        assert pct(report.accuracy) == "81.36%"
        assert [pct(report.recall[z]) for z in ZONES] == [
            "85.00%",
            "70.00%",
            "88.89%",
            "90.00%",
        ]
        assert [pct(report.precision[z]) for z in ZONES] == [
            "94.44%",
            "77.78%",
            "88.89%",
            "64.29%",
        ]
        assert report.accuracy == pytest.approx(48 / 59)
        assert report.precision["bedroom"] == pytest.approx(17 / 18)

    def test_53_sample_reference_statistics(self):
        report = report_from_counts(MATRIX_53)
        assert pct(report.accuracy) == "81.13%"
        assert [pct(report.recall[z]) for z in ZONES] == [
            "86.36%",
            "68.75%",
            "83.33%",
            "88.89%",
        ]
        assert [pct(report.precision[z]) for z in ZONES] == [
            "82.61%",
            "84.62%",
            "100.00%",
            "66.67%",
        ]

    def test_single_sample_identity(self):
        report = report_from_counts([[1, 0, 0, 0], [0] * 4, [0] * 4, [0] * 4])
        assert report.accuracy == 1.0
        assert report.precision["bedroom"] == 1.0
        assert report.recall["bedroom"] == 1.0

    def test_undefined_cells_are_none_not_zero(self):
        report = report_from_counts([[1, 0, 0, 0], [0] * 4, [0] * 4, [0] * 4])
        assert report.precision["kitchen"] is None
        assert report.recall["office"] is None
        assert pct(report.precision["kitchen"]) == "n/a"

    @settings(max_examples=40, deadline=None)
    @given(
        counts=st.lists(
            st.lists(st.integers(min_value=0, max_value=30), min_size=4, max_size=4),
            min_size=4,
            max_size=4,
        ).filter(lambda c: sum(map(sum, c)) > 0)
    )
    def test_accuracy_times_total_is_trace(self, counts):
        cm = ConfusionMatrix(classes=ZONES, counts=np.array(counts))
        report = classification_report(cm)
        assert report.accuracy * cm.total == pytest.approx(cm.trace)


class TestRmse:
    def test_zero_errors(self):
        assert rmse([0.0, 0.0, 0.0]) == 0.0

    def test_three_four_by_hand(self):
        assert rmse([3.0, 4.0]) == pytest.approx(math.sqrt(12.5), abs=1e-12)
        assert f"{rmse([3.0, 4.0]):.4f}" == "3.5355"

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            rmse([])

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            rmse([1.0, float("nan")])

    def test_against_extended_precision_oracle(self):
        rng = np.random.default_rng(0)
        errors = rng.normal(scale=100.0, size=1000)
        oracle = math.sqrt(math.fsum(float(e) * float(e) for e in errors) / len(errors))
        assert abs(rmse(errors) - oracle) / oracle < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        errors=st.lists(
            st.floats(min_value=-1e4, max_value=1e4, allow_nan=False), min_size=1, max_size=50
        ),
        alpha=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    )
    def test_scale_equivariance(self, errors, alpha):
        scaled = [alpha * e for e in errors]
        assert rmse(scaled) == pytest.approx(alpha * rmse(errors), rel=1e-9, abs=1e-9)


class TestHorizontalError:
    def test_quadrature_sum(self):
        assert horizontal_error(5.85, 5.36) == pytest.approx(7.9343, abs=5e-4)
        assert horizontal_error(28.00, 16.16) == pytest.approx(32.33, abs=5e-3)
        assert horizontal_error(0.0, 0.0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            horizontal_error(-1.0, 2.0)

    @settings(max_examples=80, deadline=None)
    @given(
        a=st.floats(min_value=0, max_value=1e6, allow_nan=False),
        b=st.floats(min_value=0, max_value=1e6, allow_nan=False),
    )
    def test_triangle_bounds(self, a, b):
        h = horizontal_error(a, b)
        assert h >= max(a, b) - 1e-9
        assert h <= a + b + 1e-9


class TestRegressionReport:
    def test_identity_between_axes_and_horizontal(self):
        report = regression_report([3.0, -4.0, 1.0], [0.5, 0.5, -2.0])
        assert report.horizontal_error**2 == pytest.approx(
            report.rmse_x**2 + report.rmse_y**2, abs=1e-9
        )
        assert report.n == 3
        assert report.errors_x == (3.0, -4.0, 1.0)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            regression_report([1.0], [1.0, 2.0])


def benchmark_reports():
    """Eight reference (rmse_x, rmse_y) pairs in cm, one per learner family."""
    reference = {
        "Random Forest": (5.85, 5.36),
        "Artificial Neural Network": (28.00, 16.16),
        "Decision Tree": (12.52, 6.19),
        "Support Vector Machine": (27.92, 27.17),
        "k-NN": (10.11, 2.96),
        "Gradient Boosted Trees": (28.12, 27.65),
        "Deep Learning": (29.67, 12.04),
        "Linear Regression": (28.06, 27.63),
    }
    return {
        name: RegressionReport(
            rmse_x=x, rmse_y=y, horizontal_error=horizontal_error(x, y), n=75
        )
        for name, (x, y) in reference.items()
    }


class TestRankModels:
    def test_reference_orderings(self):
        ranking = rank_models(benchmark_reports())
        assert ranking.by_horizontal == (
            "Random Forest",
            "k-NN",
            "Decision Tree",
            "Deep Learning",
            "Artificial Neural Network",
            "Support Vector Machine",
            "Linear Regression",
            "Gradient Boosted Trees",
        )
        assert ranking.by_rmse_y[:3] == ("k-NN", "Random Forest", "Decision Tree")
        assert ranking.by_rmse_x[0] == "Random Forest"
        assert ranking.by_rmse_x[-1] == "Deep Learning"
        assert ranking.best["horizontal_error"] == "Random Forest"

    def test_singleton(self):
        only = {"solo": regression_report([1.0], [1.0])}
        ranking = rank_models(only)
        assert ranking.by_horizontal == ("solo",)

    def test_output_is_permutation_of_inputs(self):
        reports = benchmark_reports()
        ranking = rank_models(reports)
        for ordering in (ranking.by_rmse_x, ranking.by_rmse_y, ranking.by_horizontal):
            assert sorted(ordering) == sorted(reports)

    def test_ties_break_alphabetically(self):
        tied = {
            name: RegressionReport(rmse_x=1.0, rmse_y=1.0, horizontal_error=math.sqrt(2), n=1)
            for name in ("delta", "alpha", "charlie")
        }
        assert rank_models(tied).by_horizontal == ("alpha", "charlie", "delta")

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            rank_models({})
