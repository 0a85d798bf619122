"""Indoor-localization benchmark toolkit.

Zone classification from scanner readings or motion channels, coordinate
regression from beacon distances, eight from-scratch learner families
under one contract, and the ISO/IEC 18305 planar error metrics.
"""

from .activity import (
    ComplexActivityModel,
    ValidationResult,
    WeightedElement,
    ZoneMap,
    completion_score,
    derive_zone_map,
    is_complete,
    load_activity_models,
    load_bundled_models,
    validate_activity_model,
)
from .data import (
    IMU_SAMPLE_RATE_HZ,
    RSSI_OUT_OF_RANGE,
    SCHEMAS,
    ZONES,
    Dataset,
    ParseError,
    Schema,
    SchemaError,
    SplitConfig,
    ValidationError,
    generate_synthetic_walk,
    parse_beacon_csv,
    parse_csv,
    parse_imu_csv,
    parse_rssi_csv,
    synthetic_imu_dataset,
    synthetic_rssi_dataset,
    synthetic_walk_dataset,
    write_csv,
)
from .evaluation import (
    ClassificationReport,
    ConfusionMatrix,
    Ranking,
    RegressionReport,
    classification_report,
    confusion_matrix,
    horizontal_error,
    rank_models,
    regression_report,
    rmse,
)
from .learners import (
    FAMILIES,
    LearnerSpec,
    TrainingDivergedError,
    standardize,
)
from .pipelines import (
    ComparisonResult,
    CoordsRunResult,
    PipelineConfig,
    ZoneRunResult,
    compare_models,
    run_coords,
    run_zone_imu,
    run_zone_rssi,
    zone_from_rssi_rule,
)

__version__ = "0.1.0"
