import numpy as np
import pytest

from locbench.data import (
    ZONES,
    Dataset,
    SplitConfig,
    ValidationError,
    generate_synthetic_walk,
    synthetic_imu_dataset,
    synthetic_rssi_dataset,
    synthetic_walk_dataset,
)
from locbench.learners import LearnerSpec
from locbench.pipelines import (
    PipelineConfig,
    build_imu_features,
    compare_models,
    default_comparison_specs,
    run_coords,
    run_zone_imu,
    run_zone_rssi,
    zone_from_rssi_rule,
)
from locbench.render import comparison_csv, comparison_markdown, to_json
from locbench.render import comparison_report_payload


def rssi(readings):
    full = dict.fromkeys(ZONES, -120.0)
    full.update(readings)
    return [full[z] for z in ZONES]


class TestRssiRule:
    def test_single_visible_zone_wins(self):
        assert zone_from_rssi_rule(rssi({"kitchen": -70.0})) == "kitchen"

    def test_all_out_of_range_gives_none(self):
        assert zone_from_rssi_rule(rssi({})) is None

    def test_tie_breaks_in_zone_order(self):
        sample = rssi({"bedroom": -60.0, "kitchen": -60.0})
        assert zone_from_rssi_rule(sample) == "bedroom"
        sample = rssi({"office": -55.0, "toilet": -55.0})
        assert zone_from_rssi_rule(sample) == "office"

    def test_strongest_reading_wins(self):
        sample = rssi({"bedroom": -80.0, "toilet": -40.0})
        assert zone_from_rssi_rule(sample) == "toilet"


class TestZoneRssiPipeline:
    def test_perfectly_separable_data_scores_high(self):
        result = run_zone_rssi(synthetic_rssi_dataset(rows=300, seed=1))
        assert result.report.accuracy > 0.95
        assert result.report.matrix.total == 60  # 20% of 300

    def test_rows_are_self_consistent_with_report(self):
        result = run_zone_rssi(synthetic_rssi_dataset(rows=200, seed=2))
        rows = list(zip(result.actual, result.predicted, result.confidence))
        agreements = sum(1 for actual, predicted, _ in rows if predicted == actual)
        assert agreements / len(rows) == pytest.approx(result.report.accuracy)
        for _, predicted, scores in rows:
            assert scores.sum() == pytest.approx(1.0, abs=1e-9)
            assert ZONES[int(np.argmax(scores))] == ZONES[predicted]

    def test_single_class_training_predicts_it_with_full_confidence(self):
        values = [rssi({"bedroom": -60.0 - i}) for i in range(20)]
        ds = Dataset("rssi", values, zones=[ZONES.index("bedroom")] * 20, source="test")
        result = run_zone_rssi(ds)
        for predicted, scores in zip(result.predicted, result.confidence):
            assert ZONES[predicted] == "bedroom"
            assert scores[ZONES.index("bedroom")] == 1.0

    def test_learned_model_agrees_with_rule_on_separable_data(self):
        ds = synthetic_rssi_dataset(rows=400, seed=3)
        result = run_zone_rssi(ds)
        # Rule-based inference on the same rows the learner was tested on.
        by_key = {}
        for values, label in zip(ds.values, ds.labels()):
            by_key.setdefault((tuple(values), label), values)
        agree = sum(1 for a, p in zip(result.actual, result.predicted) if p == a)
        assert agree / len(result.predicted) >= 0.99


class TestZoneImuPipeline:
    def test_learns_zone_signatures(self):
        result = run_zone_imu(synthetic_imu_dataset(rows=300, seed=4))
        assert result.report.accuracy > 0.75
        assert result.report.matrix.total == 90  # 30% of 300

    def test_windowed_features(self):
        ds = synthetic_imu_dataset(rows=200, seed=5)
        features, labels = build_imu_features(ds, window=4)
        assert features.n_cols == 12
        assert features.columns[0] == "acc_x_mean"
        assert features.columns[6] == "acc_x_std"
        assert len(labels) == features.n_rows
        assert features.n_rows <= 200 // 4

    def test_windows_never_cross_label_runs(self):
        channels = np.concatenate(
            [synthetic_imu_dataset(rows=1, seed=i).values for i in range(8)]
        )
        # Alternate labels every row: with window=2, only same-label pairs
        # may form; alternating labels leave nothing.
        alternating = [i % 2 for i in range(8)]
        ds = Dataset("imu", channels, zones=alternating, source="test")
        with pytest.raises(ValidationError, match="window"):
            build_imu_features(ds, window=2)

    def test_windowed_pipeline_runs_end_to_end(self):
        ds = synthetic_imu_dataset(rows=300, seed=6)
        from locbench.pipelines import default_zone_imu_config

        result = run_zone_imu(ds, default_zone_imu_config(seed=6, window=3))
        assert result.report.matrix.total > 10


class TestCoordsPipeline:
    def test_perfect_predictor_yields_zero_error(self):
        # Nearest-neighbor with duplicated zero-noise waypoints: every test
        # row has an exact twin in training, so predictions match truth.
        waypoints = [(80.0, 120.0), (160.0, 120.0), (80.0, 240.0), (160.0, 240.0), (240.0, 180.0)]
        ds = generate_synthetic_walk(
            ((0.0, 0.0), (400.0, 0.0), (0.0, 300.0)),
            waypoints * 30,
            noise_sigma=0.0,
        )
        config = PipelineConfig(
            learner=LearnerSpec(family="knn", seed=1, params={"k": 1}),
            split=SplitConfig(train_ratio=0.7, seed=1),
        )
        result = run_coords(ds, config)
        assert result.report.rmse_x == 0.0
        assert result.report.rmse_y == 0.0
        assert result.report.horizontal_error == 0.0

    def test_forest_on_zero_noise_grid_beats_spacing(self):
        # Four distinct waypoints repeated 20x, zero noise: test error must
        # fall well under the smallest waypoint spacing (60.8 cm here).
        waypoints = [(79.0, 137.0), (122.0, 180.0), (165.0, 223.0), (79.0, 223.0)]
        ds = generate_synthetic_walk(
            ((0.0, 0.0), (400.0, 0.0), (0.0, 300.0)), waypoints * 20, noise_sigma=0.0
        )
        result = run_coords(ds)
        min_spacing = np.sqrt(43.0**2 + 43.0**2)
        assert result.report.horizontal_error < 0.1 * min_spacing

    def test_report_identity_and_rows(self):
        ds = synthetic_walk_dataset(rows=120, noise_sigma=0.05, seed=7)
        config = PipelineConfig(
            learner=LearnerSpec(family="random_forest", seed=7, params={"trees": 15}),
            split=SplitConfig(train_ratio=0.7, seed=7),
        )
        result = run_coords(ds, config)
        report = result.report
        assert report.horizontal_error**2 == pytest.approx(
            report.rmse_x**2 + report.rmse_y**2, abs=1e-9
        )
        assert len(result.predicted[:, 0]) == len(result.predicted[:, 1]) == report.n == 36
        # Metrics recomputed from the emitted rows equal the report.
        errors = result.predicted[:, 0] - result.actual[:, 0]
        assert float(np.sqrt(np.mean(np.square(errors)))) == pytest.approx(
            report.rmse_x, abs=1e-9
        )
        # Auxiliary columns mirror the source rows.
        assert result.times[0].startswith("walk")

    def test_forest_reports_importances_others_do_not(self):
        ds = synthetic_walk_dataset(rows=80, noise_sigma=0.05, seed=8)
        forest_cfg = PipelineConfig(
            learner=LearnerSpec(family="random_forest", seed=8, params={"trees": 10}),
            split=SplitConfig(train_ratio=0.7, seed=8),
        )
        result = run_coords(ds, forest_cfg)
        assert result.importance_x is not None
        assert sum(result.importance_x.weights.values()) == pytest.approx(1.0, abs=1e-9)
        knn_cfg = PipelineConfig(
            learner=LearnerSpec(family="knn", seed=8),
            split=SplitConfig(train_ratio=0.7, seed=8),
        )
        assert run_coords(ds, knn_cfg).importance_x is None

    def test_wrong_schema_rejected(self):
        with pytest.raises(ValidationError, match="beacon"):
            run_coords(synthetic_rssi_dataset(rows=10, seed=9))


@pytest.fixture(scope="module")
def walk():
    return synthetic_walk_dataset(rows=100, noise_sigma=0.05, seed=10)


@pytest.fixture(scope="module")
def fast_specs():
    return (
        LearnerSpec(family="random_forest", params={"trees": 10}),
        LearnerSpec(family="linear_regression"),
        LearnerSpec(family="knn"),
    )


class TestCompareModels:

    def test_single_family_single_seed_equals_run_coords(self, walk):
        spec = LearnerSpec(family="linear_regression", seed=3)
        comparison = compare_models(walk, specs=(spec,), seeds=(3,))
        direct = run_coords(
            walk,
            PipelineConfig(learner=spec, split=SplitConfig(train_ratio=0.7, seed=3)),
        )
        cell = comparison.cells[0]
        assert cell.rmse_x == pytest.approx(direct.report.rmse_x)
        assert cell.rmse_y == pytest.approx(direct.report.rmse_y)
        assert cell.horizontal_error == pytest.approx(direct.report.horizontal_error)

    def test_all_families_share_each_seed_split(self, walk, fast_specs):
        result = compare_models(walk, specs=fast_specs, seeds=(1, 2))
        for seed in (1, 2):
            sizes = {
                family: runs[seed].n
                for family, runs in result.per_seed.items()
            }
            assert len(set(sizes.values())) == 1

    def test_repeat_runs_are_byte_identical(self, walk, fast_specs):
        a = compare_models(walk, specs=fast_specs, seeds=(5, 6))
        b = compare_models(walk, specs=fast_specs, seeds=(5, 6))
        assert to_json(comparison_report_payload(a)) == to_json(comparison_report_payload(b))
        assert comparison_csv(a) == comparison_csv(b)

    def test_failed_family_marked_and_run_continues(self, walk):
        specs = (
            LearnerSpec(family="knn", params={"k": 5000}),  # k > n: always fails
            LearnerSpec(family="linear_regression"),
        )
        result = compare_models(walk, specs=specs, seeds=(1,))
        by_family = {c.family: c for c in result.cells}
        assert by_family["knn"].failed is not None
        assert by_family["linear_regression"].failed is None
        assert "failed" in comparison_csv(result)

    def test_csv_layout_eight_rows_three_metric_columns(self, walk):
        specs = default_comparison_specs()
        result = compare_models(walk, specs=specs, seeds=(1,))
        lines = comparison_csv(result).strip().splitlines()
        assert lines[0] == (
            "Learning Approach,RMSE in X-Direction,RMSE in Y-Direction,Horizontal Error"
        )
        assert len(lines) == 9
        assert lines[1].startswith("Random Forest,")
        names = [line.split(",")[0] for line in lines[1:]]
        assert names == [
            "Random Forest",
            "Artificial Neural Network",
            "Decision Tree",
            "Support Vector Machine",
            "k-NN",
            "Gradient Boosted Trees",
            "Deep Learning",
            "Linear Regression",
        ]
        md = comparison_markdown(result)
        assert "| Random Forest |" in md

    def test_ranking_is_permutation(self, walk, fast_specs):
        result = compare_models(walk, specs=fast_specs, seeds=(4,))
        labels = {c.label for c in result.cells}
        assert set(result.ranking.by_horizontal) == labels

    def test_no_seeds_rejected(self, walk):
        with pytest.raises(ValidationError):
            compare_models(walk, seeds=())

    def test_empty_or_repeated_families_rejected(self, walk):
        with pytest.raises(ValidationError, match="at least one learner family"):
            compare_models(walk, specs=())
        knn = LearnerSpec(family="knn")
        with pytest.raises(ValidationError, match="repeat: knn"):
            compare_models(walk, specs=(knn, LearnerSpec(family="linear_regression"), knn))
