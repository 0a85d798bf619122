"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criteria 4-6 evaluate against the original source datasets when
the LOCBENCH_BEACON_CSV / LOCBENCH_RSSI_CSV / LOCBENCH_IMU_CSV environment
variables point at them; otherwise the documented synthetic substitutes
apply.
"""

import math
import os

import numpy as np
import pytest

from locbench.activity import completion_score, is_complete, load_bundled_models, validate_activity_model
from locbench.cli import run_cli
from locbench.data import (
    ZONES,
    SplitConfig,
    parse_beacon_csv,
    parse_imu_csv,
    parse_rssi_csv,
    split_indices,
    synthetic_rssi_dataset,
    synthetic_walk_dataset,
)
from locbench.evaluation import classification_report, horizontal_error
from locbench.evaluation import ConfusionMatrix
from locbench.learners import (
    LearnerSpec,
    fit_gbt,
    fit_knn,
    fit_svr,
    predict_knn,
    prediction_from_scores,
)
from locbench.learners.mlp import MlpNetwork
from locbench.pipelines import (
    PipelineConfig,
    run_coords,
    run_zone_imu,
    run_zone_rssi,
    zone_from_rssi_rule,
)
from locbench.render import pct
from reference_trees import (
    X_TREE_THRESHOLDS,
    Y_TREE_THRESHOLDS,
    crossing_grid,
    x_coordinate_oracle,
    x_coordinate_tree,
    y_coordinate_oracle,
    y_coordinate_tree,
)
from locbench.learners import eval_tree

ACCEPTANCE_SEEDS = tuple(range(1, 11))


def report_pass(number: int, name: str, detail: str = "") -> None:
    suffix = f"  [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {number} ({name}): PASS{suffix}")


# ---------------------------------------------------------------------------
# 1. Metric identities: the horizontal error recomputes each benchmark's
#    reference third value from its first two rows within 0.01 cm.
# ---------------------------------------------------------------------------

BENCHMARK_TRIPLES = {
    "Random Forest": (5.85, 5.36, 7.93),
    "Artificial Neural Network": (28.00, 16.16, 32.33),
    "Decision Tree": (12.52, 6.19, 13.97),
    "Support Vector Machine": (27.92, 27.17, 38.96),
    "k-NN": (10.11, 2.96, 10.54),
    "Gradient Boosted Trees": (28.12, 27.65, 39.44),
    "Deep Learning": (29.67, 12.04, 32.02),
    "Linear Regression": (28.064, 27.630, 39.382),
}


def test_criterion_1_metric_identities():
    for name, (x, y, reference_h) in BENCHMARK_TRIPLES.items():
        computed = horizontal_error(x, y)
        assert abs(computed - reference_h) <= 0.01 + 1e-12, (
            f"{name}: sqrt({x}^2 + {y}^2) = {computed:.4f} vs reference {reference_h}"
        )
    report_pass(1, "metric identities", f"{len(BENCHMARK_TRIPLES)} learner triples within 0.01 cm")


# ---------------------------------------------------------------------------
# 2. Confusion-matrix replication: both reference matrices reproduce their
#    reference accuracy, recalls, and precisions to two decimals.
# ---------------------------------------------------------------------------

REFERENCE_MATRICES = {
    "59-sample": {
        "counts": [[17, 1, 0, 0], [3, 14, 1, 0], [0, 0, 8, 1], [0, 5, 0, 9]],
        "accuracy": "81.36%",
        "recall": ["85.00%", "70.00%", "88.89%", "90.00%"],
        "precision": ["94.44%", "77.78%", "88.89%", "64.29%"],
    },
    "53-sample": {
        "counts": [[19, 4, 0, 0], [1, 11, 0, 1], [0, 0, 5, 0], [2, 1, 1, 8]],
        "accuracy": "81.13%",
        "recall": ["86.36%", "68.75%", "83.33%", "88.89%"],
        "precision": ["82.61%", "84.62%", "100.00%", "66.67%"],
    },
}


def test_criterion_2_confusion_matrix_replication():
    classes = ("bedroom", "kitchen", "office", "toilet")
    for name, expected in REFERENCE_MATRICES.items():
        cm = ConfusionMatrix(classes=classes, counts=np.array(expected["counts"]))
        report = classification_report(cm)
        assert pct(report.accuracy) == expected["accuracy"], name
        assert [pct(report.recall[c]) for c in classes] == expected["recall"], name
        assert [pct(report.precision[c]) for c in classes] == expected["precision"], name
    report_pass(2, "confusion-matrix replication", "both matrices exact to 2 decimals")


# ---------------------------------------------------------------------------
# 3. Reference-tree traversal: the hand-encoded trees agree with literal
#    nested-if oracles on a grid crossing every threshold, including the
#    two worked traces.
# ---------------------------------------------------------------------------


def test_criterion_3_tree_traversal_oracles():
    x_tree, y_tree = x_coordinate_tree(), y_coordinate_tree()
    checks = 0
    for a, b, c in crossing_grid(X_TREE_THRESHOLDS):
        assert eval_tree(x_tree, (a, b, c)) == x_coordinate_oracle(a, b, c)
        checks += 1
    for a, b, c in crossing_grid(Y_TREE_THRESHOLDS):
        assert eval_tree(y_tree, (a, b, c)) == y_coordinate_oracle(a, b, c)
        checks += 1
    assert eval_tree(x_tree, (1.2, 1.1, 1.9)) == 79.0
    assert eval_tree(y_tree, (1.05, 1.34, 0.7)) == 137.0
    report_pass(3, "tree traversal oracles", f"{checks} grid points plus both worked traces")


# ---------------------------------------------------------------------------
# 4 and 5 share ten seeded forest runs of the coordinate pipeline.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def forest_runs():
    source = os.environ.get("LOCBENCH_BEACON_CSV")
    if source:
        dataset = parse_beacon_csv(source)
    else:
        dataset = synthetic_walk_dataset(rows=250, noise_sigma=0.05, seed=42)
    runs = {}
    for seed in ACCEPTANCE_SEEDS:
        config = PipelineConfig(
            learner=LearnerSpec(family="random_forest", seed=seed),
            split=SplitConfig(train_ratio=0.7, seed=seed),
        )
        runs[seed] = run_coords(dataset, config)
    return dataset, runs, bool(source)


def test_criterion_4_coordinate_pipeline_error_band(forest_runs):
    dataset, runs, from_source = forest_runs
    horizontals = [r.report.horizontal_error for r in runs.values()]
    median_h = float(np.median(horizontals))
    if from_source:
        assert median_h <= 16.0, f"median horizontal error {median_h:.2f} cm exceeds 16 cm"
        wins = 0
        for seed, run in runs.items():
            split = SplitConfig(train_ratio=0.7, seed=seed)
            gbt = run_coords(
                dataset, PipelineConfig(learner=LearnerSpec("gbt", seed=seed), split=split)
            )
            lin = run_coords(
                dataset,
                PipelineConfig(learner=LearnerSpec("linear_regression", seed=seed), split=split),
            )
            if (
                run.report.horizontal_error < gbt.report.horizontal_error
                and run.report.horizontal_error < lin.report.horizontal_error
            ):
                wins += 1
        assert wins >= 8, f"forest beat boosted trees and linear regression in only {wins}/10"
        detail = f"source data: median {median_h:.2f} cm, {wins}/10 wins"
    else:
        assert 5.0 <= median_h <= 25.0, (
            f"synthetic substitute: median horizontal error {median_h:.2f} cm outside [5, 25]"
        )
        detail = f"synthetic walk substitute: median {median_h:.2f} cm in [5, 25]"
    report_pass(4, "coordinate pipeline error band", detail)


def test_criterion_5_feature_importance_direction(forest_runs):
    _, runs, from_source = forest_runs
    a_first = 0
    for run in runs.values():
        for importance in (run.importance_x, run.importance_y):
            assert sum(importance.weights.values()) == pytest.approx(1.0, abs=1e-9)
        weights = run.importance_x.weights
        if max(weights, key=weights.get) == "distance_a":
            a_first += 1
    assert a_first >= 8, f"distance_a led the x-model importance in only {a_first}/10 seeds"
    origin = "source data" if from_source else "synthetic walk (beacon A nearest path centroid)"
    report_pass(5, "feature-importance direction", f"{origin}: {a_first}/10 seeds")


# ---------------------------------------------------------------------------
# 6. Zone pipelines: with the source recordings, both classifiers clear 70%
#    median accuracy; without them, the learned classifier must agree with
#    the rule-based one on separable synthetic readings.
# ---------------------------------------------------------------------------


def test_criterion_6_zone_pipelines():
    rssi_source = os.environ.get("LOCBENCH_RSSI_CSV")
    imu_source = os.environ.get("LOCBENCH_IMU_CSV")
    if rssi_source and imu_source:
        rssi_ds = parse_rssi_csv(rssi_source)
        imu_ds = parse_imu_csv(imu_source)
        rssi_acc, imu_acc = [], []
        for seed in ACCEPTANCE_SEEDS:
            rssi_acc.append(
                run_zone_rssi(
                    rssi_ds,
                    PipelineConfig(
                        learner=LearnerSpec("knn", seed=seed),
                        split=SplitConfig(0.8, seed=seed, stratified=True),
                    ),
                ).report.accuracy
            )
            imu_acc.append(
                run_zone_imu(
                    imu_ds,
                    PipelineConfig(
                        learner=LearnerSpec("random_forest", seed=seed),
                        split=SplitConfig(0.7, seed=seed, stratified=True),
                    ),
                ).report.accuracy
            )
        med_rssi = float(np.median(rssi_acc))
        med_imu = float(np.median(imu_acc))
        assert med_rssi >= 0.70, f"scanner-reading accuracy {med_rssi:.4f} below 0.70"
        assert med_imu >= 0.70, f"motion-channel accuracy {med_imu:.4f} below 0.70"
        detail = f"source data: medians {med_rssi:.2%} / {med_imu:.2%}"
    else:
        dataset = synthetic_rssi_dataset(rows=500, seed=42)
        result = run_zone_rssi(dataset)
        # Match emitted predictions against the rule applied to the same
        # test rows, recovered through the deterministic split.
        labels = dataset.labels()
        _, test_idx = split_indices(
            len(dataset), SplitConfig(0.8, seed=42, stratified=True), labels=labels
        )
        rule_predictions = [zone_from_rssi_rule(dataset.values[i]) for i in test_idx]
        assert len(rule_predictions) == len(result.predicted)
        agree = sum(
            1
            for rule, predicted in zip(rule_predictions, result.predicted)
            if rule == ZONES[predicted]
        )
        agreement = agree / len(result.predicted)
        assert agreement >= 0.99, f"rule vs learned agreement {agreement:.4f} below 0.99"
        detail = (
            f"substitute: rule vs k-NN agreement {agreement:.2%} on {len(result.predicted)} rows"
        )
    report_pass(6, "zone pipelines", detail)


# ---------------------------------------------------------------------------
# 7. Property suite: independent oracles and invariants that hold with or
#    without any source dataset.
# ---------------------------------------------------------------------------


def brute_force_neighbors(X, q, k):
    d2 = [float(np.sum((row - q) ** 2)) for row in X]
    return sorted(range(len(X)), key=lambda i: (d2[i], i))[:k]


def test_criterion_7_property_suite():
    rng = np.random.default_rng(2024)

    # Nearest-neighbor prediction equals the exhaustive-sort oracle.
    for _ in range(100):
        n = int(rng.integers(2, 51))
        p = int(rng.integers(1, 6))
        k = int(rng.integers(1, n + 1))
        X = rng.normal(size=(n, p))
        y = rng.normal(size=n)
        q = rng.normal(size=p)
        model = fit_knn(X, y, k=k)
        expected = float(np.mean(y[brute_force_neighbors(X, q, k)]))
        assert predict_knn(model, [q])[0] == pytest.approx(expected, rel=1e-12)

    # Analytic network gradients match central finite differences.
    X5 = rng.normal(size=(5, 3))
    y5 = rng.normal(size=(5, 1))
    net = MlpNetwork((3, 8, 1), "sigmoid", "regression", seed=1)
    _, gw, gb = net.loss_and_grads(X5, y5)
    analytic = net.flat_grads(gw, gb)
    params = net.get_params()
    numeric = np.zeros_like(params)
    h = 1e-5
    for i in range(len(params)):
        bumped = params.copy()
        bumped[i] += h
        net.set_params(bumped)
        up = net.loss(X5, y5)
        bumped[i] -= 2 * h
        net.set_params(bumped)
        down = net.loss(X5, y5)
        numeric[i] = (up - down) / (2 * h)
    net.set_params(params)
    scale = np.maximum(1e-8, np.abs(analytic) + np.abs(numeric))
    assert float(np.max(np.abs(analytic - numeric) / scale)) < 1e-4

    # Boosting and support-vector objectives never increase.
    Xb = rng.normal(size=(60, 3))
    yb = np.sin(Xb[:, 0]) + rng.normal(scale=0.1, size=60)
    gbt = fit_gbt(Xb, yb, n_trees=40, max_depth=3)
    assert all(b <= a + 1e-12 for a, b in zip(gbt.train_losses, gbt.train_losses[1:]))
    svr = fit_svr(Xb, yb, max_iter=150)
    assert all(b <= a + 1e-12 for a, b in zip(svr.objectives, svr.objectives[1:]))

    # Split determinism and partition identities.
    for ratio, n in ((0.7, 250), (0.8, 59), (0.33, 10)):
        cfg = SplitConfig(train_ratio=ratio, seed=7)
        tr1, te1 = split_indices(n, cfg)
        tr2, te2 = split_indices(n, cfg)
        assert np.array_equal(tr1, tr2) and np.array_equal(te1, te2)
        assert len(tr1) == math.floor(ratio * n + 1e-9)
        assert sorted(set(tr1) | set(te1)) == list(range(n))
        assert not set(tr1) & set(te1)

    # Confidence vectors normalize and take the earliest class on ties.
    predicted, confidence = prediction_from_scores(np.array([[0.25, 0.25, 0.25, 0.25]]))
    assert ZONES[predicted[0]] == "bedroom"
    assert sum(confidence[0]) == pytest.approx(1.0, abs=1e-9)

    # Activity fixtures: weighted-coverage arithmetic lands exactly where
    # hand computation puts it.
    models = {m.name: m for m in load_bundled_models()}
    breakfast = models["Preparing Breakfast"]
    lunch = models["Eating Lunch"]
    assert validate_activity_model(breakfast).ok
    assert validate_activity_model(lunch).ok
    assert abs(completion_score(breakfast, breakfast.core_indices) - 0.73) < 1e-12
    assert is_complete(breakfast, breakfast.core_indices) is True
    assert abs(completion_score(lunch, lunch.core_indices) - 0.65) < 1e-12
    assert is_complete(lunch, lunch.core_indices) is False

    report_pass(7, "property suite", "oracles, monotonicity, splits, confidences, activities")


# ---------------------------------------------------------------------------
# 8. Determinism: a CLI invocation repeated with identical inputs produces
#    byte-identical report files.
# ---------------------------------------------------------------------------


def test_criterion_8_cli_determinism(tmp_path):
    data = tmp_path / "beacons.csv"
    assert run_cli(["synth", "--rows", "100", "--out", str(data), "--seed", "21"]) == 0
    outputs = []
    for name in ("one", "two"):
        out = tmp_path / name
        code = run_cli(
            [
                "coords",
                "--data",
                str(data),
                "--trees",
                "25",
                "--seed",
                "21",
                "--out-dir",
                str(out),
            ]
        )
        assert code == 0
        outputs.append(out)
    compared = []
    for name in ("report.json", "predictions_x.csv", "predictions_y.csv"):
        first = (outputs[0] / name).read_bytes()
        second = (outputs[1] / name).read_bytes()
        assert first == second, f"{name} differs between identical runs"
        compared.append(name)
    report_pass(8, "determinism", f"byte-identical: {', '.join(compared)}")
