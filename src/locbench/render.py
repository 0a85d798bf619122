"""Report serialization: full-precision JSON plus rounded CSV/markdown.

JSON keeps raw values for machine consumption; the table renderers round
to two decimals (percentages for classification, centimeters for
regression) to match the human-facing layouts.  File writes go through
a temp-file-plus-rename so readers never observe partial reports, and
no file content includes wall-clock state, keeping repeated runs
byte-identical.
"""

from __future__ import annotations

import io
import json
import os
import tempfile

from .data import ZONES
from .evaluation import ClassificationReport
from .pipelines import ComparisonResult, CoordsRunResult, ZoneRunResult


def write_atomic(path, text: str) -> None:
    """Write text to ``path`` via a temp file and rename."""
    directory = os.path.dirname(os.fspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def to_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def pct(value: float | None) -> str:
    return "n/a" if value is None else f"{100.0 * value:.2f}%"


def cm_value(value: float | None) -> str:
    return "failed" if value is None else f"{value:.2f} cm"


# --------------------------------------------------------------------------
# Classification
# --------------------------------------------------------------------------


def confusion_markdown(report: ClassificationReport) -> str:
    """The confusion matrix table: predicted rows, true columns."""
    cm = report.matrix
    out = io.StringIO()
    out.write(f"accuracy: {pct(report.accuracy)}\n\n")
    header = [""] + [f"true {c}" for c in cm.classes] + ["class precision"]
    out.write("| " + " | ".join(header) + " |\n")
    out.write("|" + " --- |" * len(header) + "\n")
    for i, cls in enumerate(cm.classes):
        row = [f"pred. {cls}"]
        row += [str(int(v)) for v in cm.counts[i]]
        row.append(pct(report.precision[cls]))
        out.write("| " + " | ".join(row) + " |\n")
    recall_row = ["class recall"] + [pct(report.recall[c]) for c in cm.classes] + [""]
    out.write("| " + " | ".join(recall_row) + " |\n")
    return out.getvalue()


def zone_report_payload(result: ZoneRunResult) -> dict:
    report = result.report
    return {
        "pipeline": "zone",
        "config": _config_payload(result.config),
        "accuracy": report.accuracy,
        "precision": {c: report.precision[c] for c in report.classes},
        "recall": {c: report.recall[c] for c in report.classes},
        "classes": list(report.classes),
        "counts": report.matrix.counts.tolist(),
        "n": report.matrix.total,
    }


def _csv_text(header: list[str], columns: list) -> str:
    """The header line, then one comma-joined line per row of ``columns``."""
    return "".join(",".join(cells) + "\n" for cells in [header, *zip(*columns)])


def zone_predictions_csv(result: ZoneRunResult) -> str:
    header = ["Row No.", "Location", "prediction(Location)"]
    header += [f"confidence({z})" for z in ZONES]
    columns = [
        map(str, range(1, len(result.actual) + 1)),
        map(ZONES.__getitem__, result.actual.tolist()),
        map(ZONES.__getitem__, result.predicted.tolist()),
        *(map(repr, scores) for scores in result.confidence.T.tolist()),
    ]
    return _csv_text(header, columns)


# --------------------------------------------------------------------------
# Regression
# --------------------------------------------------------------------------


def coords_report_payload(result: CoordsRunResult) -> dict:
    payload = {
        "pipeline": "coords",
        "config": _config_payload(result.config),
        "rmse_x_cm": result.report.rmse_x,
        "rmse_y_cm": result.report.rmse_y,
        "horizontal_error_cm": result.report.horizontal_error,
        "n": result.report.n,
        "errors_x_cm": list(result.report.errors_x),
        "errors_y_cm": list(result.report.errors_y),
    }
    if result.importance_x is not None:
        payload["feature_importance"] = {
            "x": dict(result.importance_x.weights),
            "y": dict(result.importance_y.weights),
            "x_no_splits": result.importance_x.no_splits,
            "y_no_splits": result.importance_y.no_splits,
        }
    return payload


def coord_predictions_csv(result: CoordsRunResult, axis: str) -> str:
    """Prediction table for one axis ("x" or "y")."""
    name = {"x": "Position X", "y": "Position Y"}[axis]
    column = "xy".index(axis)
    header = [
        "Row No.",
        name,
        f"prediction({name})",
        "Distance A",
        "Distance B",
        "Distance C",
        "Time",
    ]
    columns = [
        map(str, range(1, len(result.times) + 1)),
        map(repr, result.actual[:, column].tolist()),
        map(repr, result.predicted[:, column].tolist()),
        *(map(repr, distances) for distances in result.distances.T.tolist()),
        result.times,
    ]
    return _csv_text(header, columns)


# --------------------------------------------------------------------------
# Comparison
# --------------------------------------------------------------------------

_COMPARISON_HEADERS = ("RMSE in X-Direction", "RMSE in Y-Direction", "Horizontal Error")


def comparison_csv(result: ComparisonResult) -> str:
    out = io.StringIO()
    out.write("Learning Approach," + ",".join(_COMPARISON_HEADERS) + "\n")
    for cell in result.cells:
        if cell.failed is not None:
            values = ["failed"] * 3
        else:
            values = [f"{cell.rmse_x:.2f}", f"{cell.rmse_y:.2f}", f"{cell.horizontal_error:.2f}"]
        out.write(",".join([cell.label] + values) + "\n")
    return out.getvalue()


def comparison_markdown(result: ComparisonResult) -> str:
    out = io.StringIO()
    header = ["Learning Approach", *_COMPARISON_HEADERS]
    out.write("| " + " | ".join(header) + " |\n")
    out.write("|" + " --- |" * len(header) + "\n")
    for cell in result.cells:
        values = [cm_value(cell.rmse_x), cm_value(cell.rmse_y), cm_value(cell.horizontal_error)]
        out.write("| " + " | ".join([cell.label] + values) + " |\n")
    if result.ranking is not None:
        out.write("\nascending by horizontal error: ")
        out.write(" < ".join(result.ranking.by_horizontal) + "\n")
    return out.getvalue()


def comparison_report_payload(result: ComparisonResult) -> dict:
    per_seed = {}
    for family, runs in result.per_seed.items():
        per_seed[family] = {
            str(seed): (
                report
                if isinstance(report, str)
                else {
                    "rmse_x_cm": report.rmse_x,
                    "rmse_y_cm": report.rmse_y,
                    "horizontal_error_cm": report.horizontal_error,
                    "n": report.n,
                }
            )
            for seed, report in runs.items()
        }
    payload = {
        "pipeline": "compare",
        "seeds": list(result.seeds),
        "aggregate": {
            cell.label: (
                {"failed": cell.failed}
                if cell.failed is not None
                else {
                    "rmse_x_cm": cell.rmse_x,
                    "rmse_y_cm": cell.rmse_y,
                    "horizontal_error_cm": cell.horizontal_error,
                }
            )
            for cell in result.cells
        },
        "per_seed": per_seed,
    }
    if result.ranking is not None:
        payload["ranking"] = {
            "by_rmse_x": list(result.ranking.by_rmse_x),
            "by_rmse_y": list(result.ranking.by_rmse_y),
            "by_horizontal_error": list(result.ranking.by_horizontal),
            "best": result.ranking.best,
        }
    return payload


def _config_payload(config) -> dict:
    return {
        "learner": config.learner.to_text(),
        "train_ratio": config.split.train_ratio,
        "split_seed": config.split.seed,
        "stratified": config.split.stratified,
        "window": config.window,
    }
