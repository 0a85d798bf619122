"""Output checks for the benchmark workloads.

Every check compares the report files a workload wrote with a computation
made apart from the program (a rule that is optimal for the generator,
least squares, brute-force neighbours, a recount from the written files)
or with a property the method guarantees.  None compares against a stored
copy of earlier output.  Each check returns a list of failure messages;
an empty list means the output passed.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re

import numpy as np

from gen import IMU_SIGNATURES, OUT_OF_RANGE, ZONES, BeaconInput, ImuInput, RssiInput

#: Absolute tolerance when a value must be an exact fraction or sum to one.
FRACTION_TOL = 1e-9
#: Relative tolerance for metrics recomputed from the written files, where
#: the arithmetic is the same as the program's.
RECOUNT_RTOL = 1e-12
#: Relative tolerance for metrics recomputed by another method (least
#: squares instead of the normal equations).  A metric off by 1e-6
#: relative must still fail.
REFIT_RTOL = 1e-8
#: Absolute tolerance (cm) between least-squares and program predictions.
REFIT_ATOL_CM = 1e-6

#: The program's defaults that the workloads run with: its ``--seed``, the
#: train share of each pipeline, and the neighbour count of its k-NN.
PROGRAM_SEED = 42
RSSI_TRAIN_RATIO = 0.8
TRAIN_RATIO = 0.7
KNN_K = 5
#: Test rows of ``zone-rssi`` whose confidences are checked by brute force.
KNN_SAMPLE = 200

_ZERO_NOTE = re.compile(r"^note: (\d+) row\(s\) contain a zero distance reading")


def _read_json(out_dir, name):
    with open(os.path.join(out_dir, name), encoding="utf-8") as handle:
        return json.load(handle)


def _read_csv(out_dir, name):
    with open(os.path.join(out_dir, name), newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def stratified_test_rows(labels: np.ndarray, train_ratio: float) -> tuple[np.ndarray, np.ndarray]:
    """The program's own stratified partition, as the zone pipelines use it."""
    from locbench.data import SplitConfig, split_indices

    names = [ZONES[i] for i in labels]
    config = SplitConfig(train_ratio=train_ratio, seed=PROGRAM_SEED, stratified=True)
    return split_indices(len(labels), config, labels=names)


def plain_split(n: int, seed: int = PROGRAM_SEED) -> tuple[np.ndarray, np.ndarray]:
    """The documented unstratified split, reimplemented: the first
    floor(ratio * n) entries of a seeded permutation train, sorted."""
    n_train = int(math.floor(TRAIN_RATIO * n + 1e-9))
    perm = np.random.default_rng(seed).permutation(n)
    train = np.sort(perm[:n_train])
    mask = np.ones(n, dtype=bool)
    mask[train] = False
    return train, np.nonzero(mask)[0]


def _standardize(train: np.ndarray, other: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Population-std standardization fitted on ``train``; constant columns pass through."""
    mean = train.mean(axis=0)
    std = train.std(axis=0)
    scale = np.where(std > 0, std, 1.0)
    mean = np.where(std > 0, mean, 0.0)
    return (train - mean) / scale, (other - mean) / scale


def _nearest(train: np.ndarray, query: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k nearest training rows; equal distances keep training order."""
    diff = query[None, :] - train
    d2 = np.einsum("np,np->n", diff, diff)
    return np.argsort(d2, kind="stable")[:k]


# --------------------------------------------------------------------------
# Zone workloads
# --------------------------------------------------------------------------


def _check_zone_files(out_dir, truth: np.ndarray, votes: int) -> tuple[list[str], dict]:
    """Checks shared by both zone workloads; returns (failures, parsed files)."""
    failures: list[str] = []
    report = _read_json(out_dir, "report.json")
    header, rows = _read_csv(out_dir, "predictions.csv")
    expected_header = ["Row No.", "Location", "prediction(Location)"] + [f"confidence({z})" for z in ZONES]
    if header != expected_header:
        return [f"predictions.csv header is {header}"], {}
    actual = np.array([ZONES.index(r[1]) for r in rows])
    predicted = np.array([ZONES.index(r[2]) for r in rows])
    conf = np.array([[float(v) for v in r[3:]] for r in rows])
    if [int(r[0]) for r in rows] != list(range(1, len(rows) + 1)):
        failures.append("row numbers are not 1..n")
    if len(rows) != len(truth) or (actual != truth).any():
        failures.append("true labels in predictions.csv differ from the test rows of the input")
    if report["n"] != len(rows):
        failures.append(f"report n={report['n']} but predictions.csv has {len(rows)} rows")
    counts = np.zeros((len(ZONES), len(ZONES)), dtype=int)
    np.add.at(counts, (predicted, actual), 1)
    if report["counts"] != counts.tolist():
        failures.append("confusion counts differ from a recount of predictions.csv")
    accuracy = int((predicted == actual).sum()) / len(rows)
    if report["accuracy"] != accuracy:
        failures.append(f"report accuracy {report['accuracy']!r} != recount {accuracy!r}")
    if (conf < 0).any() or (np.abs(conf.sum(axis=1) - 1.0) > FRACTION_TOL).any():
        failures.append("confidences are negative or do not sum to 1")
    scaled = conf * votes
    if (np.abs(scaled - np.round(scaled)) > FRACTION_TOL * votes).any():
        failures.append(f"confidences are not multiples of 1/{votes}")
    if (np.argmax(conf, axis=1) != predicted).any():
        failures.append("a prediction is not the first argmax of its confidences")
    return failures, {"predicted": predicted, "conf": conf, "accuracy": accuracy}


def check_zone_rssi(inp: RssiInput, out_dir) -> list[str]:
    """k-NN zones from scanner rows: strongest-scanner rule and brute-force neighbours."""
    train, test = stratified_test_rows(inp.labels, RSSI_TRAIN_RATIO)
    failures, got = _check_zone_files(out_dir, inp.labels[test], votes=KNN_K)
    if not got:
        return failures
    readings = inp.readings[test]
    seen = readings > OUT_OF_RANGE
    rule = np.argmax(np.where(seen, readings, -np.inf), axis=1)
    agreement = float((rule == got["predicted"]).mean())
    if not seen.any(axis=1).all() or agreement < 0.99:
        failures.append(f"agreement with the strongest-scanner rule is {agreement:.4f} < 0.99")
    X_train, X_test = _standardize(inp.readings[train], readings)
    y_train = inp.labels[train]
    for row in np.linspace(0, len(test) - 1, min(KNN_SAMPLE, len(test))).astype(int):
        nearest = _nearest(X_train, X_test[row], KNN_K)
        expected = np.bincount(y_train[nearest], minlength=len(ZONES)) / KNN_K
        if not np.array_equal(expected, got["conf"][row]):
            failures.append(f"test row {row + 1}: confidences {got['conf'][row]} != brute force {expected}")
            break
    return failures


def nearest_signature_accuracy(inp: ImuInput, rows: np.ndarray) -> float:
    """Accuracy of the nearest-signature rule (the generator's Bayes rule)."""
    d2 = ((inp.channels[rows, None, :] - IMU_SIGNATURES[None, :, :]) ** 2).sum(axis=2)
    return float((np.argmin(d2, axis=1) == inp.labels[rows]).mean())


def check_zone_imu(inp: ImuInput, out_dir, *, trees=100, margin=0.08) -> list[str]:
    """Forest zones from motion rows: vote fractions, recount, and the Bayes-rule margin."""
    _, test = stratified_test_rows(inp.labels, TRAIN_RATIO)
    failures, got = _check_zone_files(out_dir, inp.labels[test], votes=trees)
    if not got:
        return failures
    bayes = nearest_signature_accuracy(inp, test)
    if got["accuracy"] < bayes - margin:
        failures.append(
            f"forest accuracy {got['accuracy']:.4f} is more than {margin} below "
            f"the nearest-signature rule's {bayes:.4f}"
        )
    return failures


# --------------------------------------------------------------------------
# Coordinate workloads
# --------------------------------------------------------------------------


def _design(distances: np.ndarray) -> np.ndarray:
    return np.hstack([distances, np.ones((len(distances), 1))])


def _lstsq_predict(inp: BeaconInput, train: np.ndarray, test: np.ndarray) -> np.ndarray:
    """Least-squares (x, y) predictions for the test rows, fitted on the train rows."""
    theta, *_ = np.linalg.lstsq(_design(inp.distances[train]), inp.positions[train], rcond=None)
    return _design(inp.distances[test]) @ theta


def _rmse(errors: np.ndarray) -> float:
    return float(np.sqrt(np.mean(errors * errors)))


def check_coords(inp: BeaconInput, out_dir, stdout_text: str) -> list[str]:
    """Linear coordinates: least squares on the complement of the test rows."""
    failures: list[str] = []
    report = _read_json(out_dir, "report.json")
    index = {t: i for i, t in enumerate(inp.times)}
    n = len(inp.times)
    n_test = n - int(math.floor(TRAIN_RATIO * n + 1e-9))
    test = None
    rmse = {}
    for axis, col in (("x", 0), ("y", 1)):
        header, rows = _read_csv(out_dir, f"predictions_{axis}.csv")
        rows_test = np.array([index.get(r[6], -1) for r in rows])
        if (rows_test < 0).any() or len(set(rows_test.tolist())) != len(rows):
            return failures + [f"predictions_{axis}.csv has unknown or repeated Time values"]
        if test is None:
            test = rows_test
        elif not np.array_equal(test, rows_test):
            failures.append("predictions_x.csv and predictions_y.csv list different rows")
        actual = np.array([float(r[1]) for r in rows])
        predicted = np.array([float(r[2]) for r in rows])
        dists = np.array([[float(v) for v in r[3:6]] for r in rows])
        if not (np.array_equal(actual, inp.positions[test, col]) and np.array_equal(dists, inp.distances[test])):
            failures.append(f"predictions_{axis}.csv does not echo the input rows")
        rmse[axis] = _rmse(predicted - actual)
        if not _close(rmse[axis], report[f"rmse_{axis}_cm"], RECOUNT_RTOL):
            failures.append(f"rmse_{axis} {report[f'rmse_{axis}_cm']!r} != recount {rmse[axis]!r}")
        mask = np.ones(n, dtype=bool)
        mask[test] = False
        expected = _lstsq_predict(inp, np.nonzero(mask)[0], test)[:, col]
        worst = float(np.max(np.abs(expected - predicted)))
        if worst > REFIT_ATOL_CM:
            failures.append(f"{axis} predictions differ from least squares by up to {worst:.3g} cm")
    if len(test) != n_test or report["n"] != n_test:
        failures.append(f"expected {n_test} test rows, report says {report['n']}, files have {len(test)}")
    if not _close(report["horizontal_error_cm"], math.hypot(report["rmse_x_cm"], report["rmse_y_cm"]), RECOUNT_RTOL):
        failures.append("horizontal error is not hypot(rmse_x, rmse_y)")
    notes = [int(m.group(1)) for m in map(_ZERO_NOTE.match, stdout_text.splitlines()) if m]
    if notes != [inp.zero_rows]:
        failures.append(f"zero-distance notes {notes} != the {inp.zero_rows} rows generated")
    return failures


def _knn_regression(X_train, y_train, X_test, k):
    return np.array([y_train[_nearest(X_train, q, k)].mean(axis=0) for q in X_test])


def check_compare(inp: BeaconInput, out_dir, *, families=None) -> list[str]:
    """The comparison table: no failures, recomputed k-NN and linear cells,
    the hypot identity, better than the train mean, and sorted rankings."""
    from locbench.pipelines import FAMILY_LABELS

    failures: list[str] = []
    report = _read_json(out_dir, "report.json")
    aggregate = report["aggregate"]
    labels = [FAMILY_LABELS[f] for f in (families or FAMILY_LABELS)]
    if sorted(aggregate) != sorted(labels):
        return [f"families in the report are {sorted(aggregate)}"]
    failed = [name for name, cell in aggregate.items() if "failed" in cell]
    if failed:
        return [f"families failed: {failed}"]

    train, test = plain_split(len(inp.times))
    truth = inp.positions[test]
    baseline = [_rmse(truth[:, a] - inp.positions[train, a].mean()) for a in (0, 1)]
    X_train, X_test = _standardize(inp.distances[train], inp.distances[test])
    recomputed = {
        FAMILY_LABELS["knn"]: _knn_regression(X_train, inp.positions[train], X_test, KNN_K),
        FAMILY_LABELS["linear_regression"]: _lstsq_predict(inp, train, test),
    }
    for name, cell in aggregate.items():
        rx, ry, h = cell["rmse_x_cm"], cell["rmse_y_cm"], cell["horizontal_error_cm"]
        if not _close(h, math.hypot(rx, ry), RECOUNT_RTOL):
            failures.append(f"{name}: horizontal error is not hypot(rmse_x, rmse_y)")
        if not (rx < baseline[0] and ry < baseline[1]):
            failures.append(f"{name}: ({rx:.3f}, {ry:.3f}) cm does not beat the train mean {baseline}")
        if name in recomputed:
            errors = recomputed[name] - truth
            for axis, got in (("x", rx), ("y", ry)):
                want = _rmse(errors[:, 0 if axis == "x" else 1])
                if not _close(got, want, REFIT_RTOL):
                    failures.append(f"{name}: rmse_{axis} {got!r} != recomputed {want!r}")
    ranking = report.get("ranking", {})
    for key, metric in (("by_rmse_x", "rmse_x_cm"), ("by_rmse_y", "rmse_y_cm"), ("by_horizontal_error", "horizontal_error_cm")):
        order = ranking.get(key, [])
        values = [aggregate[name][metric] for name in order if name in aggregate]
        if sorted(order) != sorted(labels) or values != sorted(values):
            failures.append(f"ranking {key} is not the families sorted ascending")
    return failures
