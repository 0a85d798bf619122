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

from collections import Counter
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
    REGRESSION_METRICS,
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
    ImportanceReport,
    LearnerSpec,
    TrainingDivergedError,
    feature_importance,
    fit_classifier,
    fit_regressor,
    prediction_from_scores,
    standardize,
)

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


def build_rssi_features(dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """(scanner readings, zone indices), one row per dataset row."""
    _check_dataset(dataset, "rssi")
    return dataset.values, dataset.zones


def build_imu_features(
    dataset: Dataset, window: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample channels, or windowed mean+std per channel when requested.

    Windows of ``window`` consecutive samples are taken without overlap
    inside runs of constant label (never across a label change); short
    remainders are dropped.  A window's features are its channels' means,
    then their standard deviations; a window whose mean or standard
    deviation overflows is refused.
    """
    _check_dataset(dataset, "imu")
    channels, labels = dataset.values, dataset.zones
    if window is None or window == 1:
        return channels, labels

    if window < 1:
        raise ValidationError(f"window must be >= 1, got {window}")
    starts = np.flatnonzero(np.diff(labels, prepend=-1))  # the first row of each run
    lengths = np.diff(starts, append=len(labels))
    offset = np.arange(len(labels)) - np.repeat(starts, lengths)  # each row's place in its run
    left = np.repeat(lengths, lengths) - offset  # rows from this one to the end of its run
    first = np.flatnonzero((offset % window == 0) & (left >= window))  # each window's first row
    if len(first) == 0:
        raise ValidationError(
            f"window={window} leaves no complete windows; dataset runs are too short"
        )
    chunks = channels[first[:, None] + np.arange(window)]  # (windows, window, channels)
    # Finite cells near the float limit can overflow; such a window is refused below.
    with np.errstate(over="ignore", invalid="ignore"):
        features = np.concatenate([chunks.mean(axis=1), chunks.std(axis=1)], axis=1)
    bad = ~np.isfinite(features).all(axis=1)
    if bad.any():
        start = first[np.argmax(bad)]
        raise ValidationError(
            f"window={window}: the mean or standard deviation of the window of data rows "
            f"{start + 1}..{start + window} overflows"
        )
    return features, labels[first]


def build_beacon_features(
    dataset: Dataset,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[str, ...]]:
    """(distance features, position x, position y, times), all column views."""
    _check_dataset(dataset, "beacon")
    values = dataset.values
    return values[:, 2:], values[:, 0], values[:, 1], dataset.times


# --------------------------------------------------------------------------
# Zone classification pipelines
# --------------------------------------------------------------------------


def _split(
    n: int, config: SplitConfig, labels: np.ndarray | None = None
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


def _run_zone(features: np.ndarray, labels: np.ndarray, config: PipelineConfig) -> ZoneRunResult:
    train_idx, test_idx = _split(len(features), config.split, labels)
    stats, X_train = standardize(features[train_idx])
    X_test = stats.transform(features[test_idx])
    model = fit_classifier(config.learner, X_train, labels[train_idx], n_classes=len(ZONES))
    predicted, confidence = prediction_from_scores(model.predict_confidence(X_test))
    actual = labels[test_idx]
    report = classification_report(confusion_matrix(actual, predicted))
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


def _fit_predict_coords(spec: LearnerSpec, X: np.ndarray, targets, train_idx, test_idx):
    """Standardize on the training rows, fit one model per axis, predict the test rows.

    ``targets`` are the position columns, x then y.  Returns the two
    models, their test-row predictions and the regression report.
    """
    stats, X_train = standardize(X[train_idx])
    X_test = stats.transform(X[test_idx])
    models = [fit_regressor(spec, X_train, t[train_idx]) for t in targets]
    predicted = [model.predict(X_test) for model in models]
    report = regression_report(*(p - t[test_idx] for p, t in zip(predicted, targets)))
    return models, predicted, report


def run_coords(dataset: Dataset, config: PipelineConfig | None = None) -> CoordsRunResult:
    """Coordinate regression from beacon distances; X and Y are separate models."""
    config = config or default_coords_config()
    features, pos_x, pos_y, times = build_beacon_features(dataset)
    train_idx, test_idx = _split(len(features), config.split)
    models, predicted, report = _fit_predict_coords(
        config.learner, features, (pos_x, pos_y), train_idx, test_idx
    )
    importance = (None, None)
    if config.learner.family == "random_forest":
        importance = [feature_importance(m, feature_names=DISTANCE_FEATURES) for m in models]
    return CoordsRunResult(
        report=report,
        test_idx=test_idx,
        actual=np.column_stack([pos_x[test_idx], pos_y[test_idx]]),
        predicted=np.column_stack(predicted),
        distances=features[test_idx],
        times=tuple(map(times.__getitem__, test_idx.tolist())),
        importance_x=importance[0],
        importance_y=importance[1],
        config=config,
    )


# --------------------------------------------------------------------------
# Eight-model comparison harness
# --------------------------------------------------------------------------


def default_comparison_specs(seed: int = 42) -> tuple[LearnerSpec, ...]:
    """The eight family presets, in canonical table order."""
    return tuple(LearnerSpec(family=f, seed=seed) for f in FAMILIES)


@dataclass(frozen=True)
class ComparisonResult:
    """Per-seed reports and their aggregate, each keyed by family in spec order.

    ``aggregate`` holds a family's per-metric medians over the seeds that
    ran, with ``n`` the number of those seeds, or, if none ran, its
    sorted failure reasons joined by "; ".  ``ranking`` orders the
    aggregated families by display label.
    """

    aggregate: Mapping[str, RegressionReport | str]
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
    for what, values in (("learner families", [s.family for s in specs]), ("seeds", seeds)):
        repeated = sorted(v for v, count in Counter(values).items() if count > 1)
        if repeated:
            raise ValidationError(f"{what} repeat: {', '.join(map(str, repeated))}")
    features, pos_x, pos_y, _ = build_beacon_features(dataset)

    per_seed: dict[str, dict[int, RegressionReport | str]] = {s.family: {} for s in specs}
    for seed in seeds:
        split = SplitConfig(train_ratio=train_ratio, seed=seed, stratified=False)
        train_idx, test_idx = _split(len(features), split)
        for spec in specs:
            run_spec = LearnerSpec(family=spec.family, seed=seed, params=spec.params)
            try:
                report = _fit_predict_coords(
                    run_spec, features, (pos_x, pos_y), train_idx, test_idx
                )[2]
            except (ValidationError, TrainingDivergedError, FloatingPointError) as exc:
                report = f"failed: {exc}"
            per_seed[spec.family][seed] = report

    aggregate: dict[str, RegressionReport | str] = {}
    for family, runs in per_seed.items():
        reports = [r for r in runs.values() if isinstance(r, RegressionReport)]
        if not reports:
            aggregate[family] = "; ".join(sorted(set(runs.values())))
            continue
        medians = {
            metric: float(np.median([getattr(r, metric) for r in reports]))
            for metric in REGRESSION_METRICS
        }
        aggregate[family] = RegressionReport(**medians, n=len(reports))

    ranked = {FAMILY_LABELS[f]: r for f, r in aggregate.items() if not isinstance(r, str)}
    return ComparisonResult(
        aggregate=aggregate,
        per_seed=per_seed,
        seeds=tuple(int(s) for s in seeds),
        ranking=rank_models(ranked) if ranked else None,
    )
