"""End-to-end pipelines: ingest -> split -> fit -> predict -> evaluate.

Three methodologies share the machinery:

* zone from scanner readings  -- stratified 80/20 split, k-NN default
* zone from motion channels   -- stratified 70/30 split, random forest default
* coordinates from distances  -- plain 70/30 split, two independent
  regressors (one per axis), random forest default

plus a comparison harness that runs all eight learner families over the
same splits and ranks them by the three regression metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .data import (
    RSSI_OUT_OF_RANGE,
    SCHEMAS,
    ZONES,
    Dataset,
    SplitConfig,
    ValidationError,
    split_indices,
)
from .evaluation import (
    ClassificationReport,
    Ranking,
    RegressionReport,
    classification_report,
    confusion_matrix,
    rank_models,
    regression_report,
)
from .learners import (
    FAMILIES,
    REGISTRY,
    FeatureMatrix,
    ImportanceReport,
    LearnerSpec,
    TrainingDivergedError,
    feature_importance,
    fit_classifier,
    fit_regressor,
    prediction_from_scores,
    standardize,
)

RSSI_FEATURES = SCHEMAS["rssi"].numeric
IMU_FEATURES = SCHEMAS["imu"].numeric
DISTANCE_FEATURES = SCHEMAS["beacon"].numeric[2:]  # after position_x, position_y

#: Table-layout display names for the learner families, in table order.
FAMILY_LABELS = {name: family.label for name, family in REGISTRY.items()}


@dataclass(frozen=True)
class PipelineConfig:
    """Split plus learner choice for one pipeline run."""

    learner: LearnerSpec
    split: SplitConfig
    window: int | None = None

    def __post_init__(self) -> None:
        if self.window is not None and self.window < 1:
            raise ValidationError(f"window must be >= 1, got {self.window}")


def default_zone_rssi_config(seed: int = 42) -> PipelineConfig:
    return PipelineConfig(
        learner=LearnerSpec(family="knn", seed=seed),
        split=SplitConfig(train_ratio=0.8, seed=seed, stratified=True),
    )


def default_zone_imu_config(seed: int = 42, window: int | None = None) -> PipelineConfig:
    return PipelineConfig(
        learner=LearnerSpec(family="random_forest", seed=seed),
        split=SplitConfig(train_ratio=0.7, seed=seed, stratified=True),
        window=window,
    )


def default_coords_config(seed: int = 42) -> PipelineConfig:
    return PipelineConfig(
        learner=LearnerSpec(family="random_forest", seed=seed),
        split=SplitConfig(train_ratio=0.7, seed=seed, stratified=False),
    )


# --------------------------------------------------------------------------
# Rule-based zone inference
# --------------------------------------------------------------------------


def zone_from_rssi_rule(readings: Sequence[float]) -> str | None:
    """The zone whose scanner reads strongest, if any scanner saw the beacon.

    ``readings`` holds one reading per zone in ``ZONES`` order, as in a row
    of an rssi dataset's values.  Readings of exactly the out-of-range
    value never win; if every scanner reports out-of-range the result is
    None.  Ties go to the earliest zone in canonical order.
    """
    best_zone = None
    best_value = RSSI_OUT_OF_RANGE
    for zone, value in zip(ZONES, readings):
        if value > best_value:
            best_zone, best_value = zone, value
    return best_zone


# --------------------------------------------------------------------------
# Feature construction
# --------------------------------------------------------------------------


def _check_dataset(dataset: Dataset, schema_tag: str) -> None:
    if dataset.schema_tag != schema_tag:
        raise ValidationError(
            f"expected a dataset of schema {schema_tag!r}, got {dataset.schema_tag!r}"
        )
    if len(dataset) == 0:
        raise ValidationError("dataset is empty")


def build_rssi_features(dataset: Dataset) -> tuple[FeatureMatrix, np.ndarray]:
    _check_dataset(dataset, "rssi")
    return FeatureMatrix(values=dataset.values, columns=RSSI_FEATURES), dataset.zones


def build_imu_features(
    dataset: Dataset, window: int | None = None
) -> tuple[FeatureMatrix, np.ndarray]:
    """Per-sample channels, or windowed mean+std per channel when requested.

    Windows of ``window`` consecutive samples are taken without overlap
    inside runs of constant label (never across a label change); short
    remainders are dropped.
    """
    _check_dataset(dataset, "imu")
    channels, labels = dataset.values, dataset.zones
    if window is None or window == 1:
        return FeatureMatrix(values=channels, columns=IMU_FEATURES), labels

    feat_rows = []
    feat_labels = []
    run_start = 0
    for i in range(1, len(labels) + 1):
        if i == len(labels) or labels[i] != labels[run_start]:
            run = channels[run_start:i]
            for w0 in range(0, len(run) - window + 1, window):
                chunk = run[w0 : w0 + window]
                feat_rows.append(np.concatenate([chunk.mean(axis=0), chunk.std(axis=0)]))
                feat_labels.append(labels[run_start])
            run_start = i
    if not feat_rows:
        raise ValidationError(
            f"window={window} leaves no complete windows; dataset runs are too short"
        )
    columns = tuple(f"{c}_mean" for c in IMU_FEATURES) + tuple(f"{c}_std" for c in IMU_FEATURES)
    return FeatureMatrix(values=np.array(feat_rows), columns=columns), np.array(feat_labels)


def build_beacon_features(
    dataset: Dataset,
) -> tuple[FeatureMatrix, np.ndarray, np.ndarray, tuple[str, ...]]:
    """(distance features, position x, position y, times), all column views."""
    _check_dataset(dataset, "beacon")
    values = dataset.values
    features = FeatureMatrix(values=values[:, 2:], columns=DISTANCE_FEATURES)
    return features, values[:, 0], values[:, 1], dataset.times


# --------------------------------------------------------------------------
# Zone classification pipelines
# --------------------------------------------------------------------------


def _split(
    n: int, config: SplitConfig, labels: Sequence[str] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """``split_indices``, refusing a split that leaves either side empty."""
    train_idx, test_idx = split_indices(n, config, labels=labels)
    if len(train_idx) == 0:
        raise ValidationError("split left no training rows; raise the train ratio")
    if len(test_idx) == 0:
        raise ValidationError("split left no test rows; lower the train ratio")
    return train_idx, test_idx


@dataclass(frozen=True)
class ZoneRunResult:
    """Zone predictions for the held-out feature rows, one array entry per row.

    ``test_idx`` are the held-out feature rows in ascending order;
    ``actual`` and ``predicted`` are indices into ``ZONES``, and
    ``predicted`` is the first maximum of each row of ``confidence``
    (test rows x zones, each row non-negative and summing to 1).
    """

    report: ClassificationReport
    test_idx: np.ndarray
    actual: np.ndarray
    predicted: np.ndarray
    confidence: np.ndarray
    config: PipelineConfig


def _run_zone(features: FeatureMatrix, labels: np.ndarray, config: PipelineConfig) -> ZoneRunResult:
    train_idx, test_idx = _split(features.n_rows, config.split, [ZONES[i] for i in labels])
    stats, X_train = standardize(features.values[train_idx])
    X_test = stats.transform(features.values[test_idx])
    model = fit_classifier(config.learner, X_train, labels[train_idx], n_classes=len(ZONES))
    predicted, confidence = prediction_from_scores(model.predict_confidence(X_test))
    actual = labels[test_idx]
    report = classification_report(
        confusion_matrix([ZONES[i] for i in actual], [ZONES[i] for i in predicted])
    )
    return ZoneRunResult(
        report=report,
        test_idx=test_idx,
        actual=actual,
        predicted=predicted,
        confidence=confidence,
        config=config,
    )


def run_zone_rssi(dataset: Dataset, config: PipelineConfig | None = None) -> ZoneRunResult:
    """Zone classification from scanner readings (stratified 80/20, k-NN default)."""
    config = config or default_zone_rssi_config()
    features, labels = build_rssi_features(dataset)
    return _run_zone(features, labels, config)


def run_zone_imu(dataset: Dataset, config: PipelineConfig | None = None) -> ZoneRunResult:
    """Zone classification from motion channels (stratified 70/30, forest default)."""
    config = config or default_zone_imu_config()
    features, labels = build_imu_features(dataset, window=config.window)
    return _run_zone(features, labels, config)


# --------------------------------------------------------------------------
# Coordinate regression pipeline
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CoordsRunResult:
    """Coordinate predictions for the held-out rows, one array row per test row.

    ``actual`` and ``predicted`` are (test rows x 2) positions in cm, x
    then y; ``distances`` and ``times`` are the test rows' beacon
    distances and timestamps, in ``test_idx`` order.
    """

    report: RegressionReport
    test_idx: np.ndarray
    actual: np.ndarray
    predicted: np.ndarray
    distances: np.ndarray
    times: tuple[str, ...]
    importance_x: ImportanceReport | None
    importance_y: ImportanceReport | None
    config: PipelineConfig


def _fit_coord_models(spec: LearnerSpec, X_train, targets_train):
    """Two independently trained single-output models, one per axis."""
    return tuple(fit_regressor(spec, X_train, t) for t in targets_train)


def run_coords(dataset: Dataset, config: PipelineConfig | None = None) -> CoordsRunResult:
    """Coordinate regression from beacon distances; X and Y are separate models."""
    config = config or default_coords_config()
    features, pos_x, pos_y, times = build_beacon_features(dataset)
    train_idx, test_idx = _split(features.n_rows, config.split)
    return _run_coords_on_split(features, pos_x, pos_y, times, train_idx, test_idx, config)


def _run_coords_on_split(
    features: FeatureMatrix,
    pos_x: np.ndarray,
    pos_y: np.ndarray,
    times: tuple[str, ...],
    train_idx: np.ndarray,
    test_idx: np.ndarray,
    config: PipelineConfig,
) -> CoordsRunResult:
    stats, X_train = standardize(features.values[train_idx])
    X_test = stats.transform(features.values[test_idx])
    model_x, model_y = _fit_coord_models(
        config.learner, X_train, (pos_x[train_idx], pos_y[train_idx])
    )
    pred_x = model_x.predict(X_test)
    pred_y = model_y.predict(X_test)
    report = regression_report(pred_x - pos_x[test_idx], pred_y - pos_y[test_idx])

    importance_x = importance_y = None
    if config.learner.family == "random_forest":
        importance_x = feature_importance(model_x, feature_names=features.columns)
        importance_y = feature_importance(model_y, feature_names=features.columns)

    return CoordsRunResult(
        report=report,
        test_idx=test_idx,
        actual=np.column_stack([pos_x[test_idx], pos_y[test_idx]]),
        predicted=np.column_stack([pred_x, pred_y]),
        distances=features.values[test_idx],
        times=tuple(times[i] for i in test_idx),
        importance_x=importance_x,
        importance_y=importance_y,
        config=config,
    )


# --------------------------------------------------------------------------
# Eight-model comparison harness
# --------------------------------------------------------------------------


def default_comparison_specs(seed: int = 42) -> tuple[LearnerSpec, ...]:
    """The eight family presets, in canonical table order."""
    return tuple(LearnerSpec(family=f, seed=seed) for f in FAMILIES)


@dataclass(frozen=True)
class ComparisonCell:
    """Median metrics for one family, or the failure reason."""

    family: str
    rmse_x: float | None
    rmse_y: float | None
    horizontal_error: float | None
    failed: str | None = None

    @property
    def label(self) -> str:
        return FAMILY_LABELS[self.family]


@dataclass(frozen=True)
class ComparisonResult:
    cells: tuple[ComparisonCell, ...]
    per_seed: Mapping[str, Mapping[int, RegressionReport | str]]
    seeds: tuple[int, ...]
    ranking: Ranking | None


def compare_models(
    dataset: Dataset,
    specs: Sequence[LearnerSpec] | None = None,
    seeds: Sequence[int] = (42,),
    train_ratio: float = 0.7,
) -> ComparisonResult:
    """Run the coordinate pipeline for every (family, seed) pair.

    Within one seed every family sees the identical train/test split, so
    the ranking compares models rather than partitions.  Aggregation is
    the per-metric median across seeds; a family that fails on every seed
    gets a failure marker instead of numbers and the run continues.
    """
    if not seeds:
        raise ValidationError("at least one seed is required")
    specs = tuple(specs) if specs is not None else default_comparison_specs()
    if not specs:
        raise ValidationError("at least one learner family is required")
    families = [s.family for s in specs]
    repeated = sorted({f for f in families if families.count(f) > 1})
    if repeated:
        raise ValidationError(f"learner families repeat: {', '.join(repeated)}")
    features, pos_x, pos_y, times = build_beacon_features(dataset)

    per_seed: dict[str, dict[int, RegressionReport | str]] = {s.family: {} for s in specs}
    for seed in seeds:
        split = SplitConfig(train_ratio=train_ratio, seed=seed, stratified=False)
        train_idx, test_idx = _split(features.n_rows, split)
        for spec in specs:
            run_spec = LearnerSpec(family=spec.family, seed=seed, params=spec.params)
            config = PipelineConfig(learner=run_spec, split=split)
            try:
                result = _run_coords_on_split(
                    features, pos_x, pos_y, times, train_idx, test_idx, config
                )
                per_seed[spec.family][seed] = result.report
            except (ValidationError, TrainingDivergedError, FloatingPointError) as exc:
                per_seed[spec.family][seed] = f"failed: {exc}"

    cells = []
    medians: dict[str, RegressionReport] = {}
    for spec in specs:
        reports = [r for r in per_seed[spec.family].values() if isinstance(r, RegressionReport)]
        if not reports:
            reasons = {str(r) for r in per_seed[spec.family].values()}
            cells.append(
                ComparisonCell(
                    family=spec.family,
                    rmse_x=None,
                    rmse_y=None,
                    horizontal_error=None,
                    failed="; ".join(sorted(reasons)),
                )
            )
            continue
        cell = ComparisonCell(
            family=spec.family,
            rmse_x=float(np.median([r.rmse_x for r in reports])),
            rmse_y=float(np.median([r.rmse_y for r in reports])),
            horizontal_error=float(np.median([r.horizontal_error for r in reports])),
        )
        cells.append(cell)
        medians[FAMILY_LABELS[spec.family]] = RegressionReport(
            rmse_x=cell.rmse_x,
            rmse_y=cell.rmse_y,
            horizontal_error=cell.horizontal_error,
            n=len(reports),
        )

    ranking = rank_models(medians) if medians else None
    return ComparisonResult(
        cells=tuple(cells),
        per_seed=per_seed,
        seeds=tuple(int(s) for s in seeds),
        ranking=ranking,
    )
