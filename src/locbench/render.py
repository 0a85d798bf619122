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
import re
import tempfile

from .data import ZONES
from .evaluation import REGRESSION_METRICS, ClassificationReport, RegressionReport
from .pipelines import FAMILY_LABELS, ComparisonResult, CoordsRunResult, ZoneRunResult


def write_atomic(path, text: str) -> None:
    """Write text to ``path`` via a temp file and rename.

    The file's mode is 0o666 less the umask, the mode ``open()`` gives a new file.
    """
    directory = os.path.dirname(os.fspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        umask = os.umask(0o22)  # only setting the umask reads it
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)  # mkstemp's 0600, widened as open() would
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):  # name the report, not the temp file
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
        raise


def to_json(payload) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True)`` and a newline, encoded mostly in C."""
    return _json(payload, "") + "\n"


def _json(value, pad: str) -> str:
    """``value`` as the indenting encoder writes it at indent ``pad``.

    That encoder runs in Python, so a container of scalars (the error lists)
    goes to the C encoder whole, its separator carrying newline and indent.
    """
    if not isinstance(value, (dict, list, tuple)) or not value:
        return json.dumps(value)
    inner, is_dict = pad + "  ", isinstance(value, dict)
    if set(map(type, value.values() if is_dict else value)) <= {str, int, float, bool, type(None)}:
        body = json.dumps(value, sort_keys=True, separators=(",\n" + inner, ": "))[1:-1]
    elif is_dict:  # a key that is not a string is written as its JSON text
        items = sorted(value.items())
        key = lambda k: json.dumps(k if isinstance(k, str) else json.dumps(k))
        body = (",\n" + inner).join(f"{key(k)}: {_json(v, inner)}" for k, v in items)
    else:
        body = (",\n" + inner).join(_json(item, inner) for item in value)
    brackets = "{}" if is_dict else "[]"
    return f"{brackets[0]}\n{inner}{body}\n{pad}{brackets[1]}"


def pct(value: float | None) -> str:
    return "n/a" if value is None else f"{100.0 * value:.2f}%"


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


_NEEDS_QUOTES = re.compile('[,"\r\n]')


def _csv_text(header: list[str], columns: list) -> str:
    """The header line, then one comma-joined line per row of ``columns``."""
    # No row tuple outlives its join, so zip reuses one: no tuples for the garbage collector.
    return "\n".join([",".join(header), *map(",".join, zip(*columns))]) + "\n"


def _csv_field(cell: str) -> str:
    """``cell`` as an RFC 4180 field: quoted, quotes doubled, if it holds , " CR or LF."""
    return '"' + cell.replace('"', '""') + '"' if _NEEDS_QUOTES.search(cell) else cell


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


def _metrics_payload(report: RegressionReport) -> dict:
    """The three regression metrics of a report, keyed by name plus unit."""
    return {f"{metric}_cm": getattr(report, metric) for metric in REGRESSION_METRICS}


def coords_report_payload(result: CoordsRunResult) -> dict:
    payload = {
        "pipeline": "coords",
        "config": _config_payload(result.config),
        **_metrics_payload(result.report),
        "n": result.report.n,
        "errors_x_cm": result.report.errors_x,
        "errors_y_cm": result.report.errors_y,
    }
    if result.importance_x is not None:
        payload["feature_importance"] = {
            "x": dict(result.importance_x.weights),
            "y": dict(result.importance_y.weights),
            "x_no_splits": result.importance_x.no_splits,
            "y_no_splits": result.importance_y.no_splits,
        }
    return payload


def coord_predictions_csv(result: CoordsRunResult) -> dict[str, str]:
    """The prediction tables of both axes, keyed "x" and "y", sharing all but two columns."""
    times = result.times
    if _NEEDS_QUOTES.search("".join(times)):  # quote cell by cell only a column that needs it
        times = map(_csv_field, times)
    heads = list(map(str, range(1, len(result.times) + 1)))
    tails = list(map(",".join, zip(*(map(repr, d) for d in result.distances.T.tolist()), times)))
    tables = {}
    for j, axis in enumerate("xy"):
        name = f"Position {axis.upper()}"
        header = ["Row No.", name, f"prediction({name})", *(f"Distance {b}" for b in "ABC"), "Time"]
        positions = (map(repr, a[:, j].tolist()) for a in (result.actual, result.predicted))
        tables[axis] = _csv_text(header, [heads, *positions, tails])
    return tables


# --------------------------------------------------------------------------
# Comparison
# --------------------------------------------------------------------------

_COMPARISON_HEADERS = ("RMSE in X-Direction", "RMSE in Y-Direction", "Horizontal Error")


def _comparison_rows(result: ComparisonResult, number):
    """(label, three metric cells) per family; ``number`` formats one metric."""
    for family, report in result.aggregate.items():
        if isinstance(report, str):
            values = ["failed"] * 3
        else:
            values = [number(getattr(report, metric)) for metric in REGRESSION_METRICS]
        yield FAMILY_LABELS[family], values


def comparison_csv(result: ComparisonResult) -> str:
    out = io.StringIO()
    out.write("Learning Approach," + ",".join(_COMPARISON_HEADERS) + "\n")
    for label, values in _comparison_rows(result, "{:.2f}".format):
        out.write(",".join([label] + values) + "\n")
    return out.getvalue()


def comparison_markdown(result: ComparisonResult) -> str:
    out = io.StringIO()
    header = ["Learning Approach", *_COMPARISON_HEADERS]
    out.write("| " + " | ".join(header) + " |\n")
    out.write("|" + " --- |" * len(header) + "\n")
    for label, values in _comparison_rows(result, "{:.2f} cm".format):
        out.write("| " + " | ".join([label] + values) + " |\n")
    if result.ranking is not None:
        out.write("\nascending by horizontal error: ")
        out.write(" < ".join(result.ranking.by_horizontal) + "\n")
    return out.getvalue()


def comparison_report_payload(result: ComparisonResult) -> dict:
    payload = {
        "pipeline": "compare",
        "seeds": list(result.seeds),
        "aggregate": {
            FAMILY_LABELS[family]: (
                {"failed": report} if isinstance(report, str) else _metrics_payload(report)
            )
            for family, report in result.aggregate.items()
        },
        "per_seed": {
            family: {
                str(seed): (
                    report
                    if isinstance(report, str)
                    else {**_metrics_payload(report), "n": report.n}
                )
                for seed, report in runs.items()
            }
            for family, runs in result.per_seed.items()
        },
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
