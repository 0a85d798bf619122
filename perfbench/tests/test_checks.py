"""Every output check accepts the program's real output and rejects a
deliberately wrong copy of it.  The real outputs come from small runs of
the same CLI subcommands the workloads use."""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import shutil

import pytest

import checks
import gen
from locbench.cli import run_cli

COMPARE_FAMILIES = ("knn", "linear_regression", "decision_tree")


def _run(argv) -> str:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        assert run_cli(argv) == 0
    return sink.getvalue()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("outputs")
    made = {}
    imu = gen.imu_rows(400, 3, base / "imu.csv")
    _run(["zone-imu", "--data", str(base / "imu.csv"), "--trees", "10", "--out-dir", str(base / "imu")])
    made["imu"] = (imu, base / "imu")
    rssi = gen.rssi_rows(600, 3, base / "rssi.csv")
    _run(["zone-rssi", "--data", str(base / "rssi.csv"), "--out-dir", str(base / "rssi")])
    made["rssi"] = (rssi, base / "rssi")
    walk = gen.beacon_walk(3000, 3, base / "walk.csv")
    text = _run(["coords", "--data", str(base / "walk.csv"), "--model", "linear_regression", "--out-dir", str(base / "coords")])
    made["coords"] = (walk, base / "coords", text)
    small = gen.beacon_walk(120, 3, base / "small.csv")
    families = ",".join(COMPARE_FAMILIES)
    _run(["compare", "--data", str(base / "small.csv"), "--families", families, "--out-dir", str(base / "compare")])
    made["compare"] = (small, base / "compare")
    return made


@pytest.fixture
def copy_of(tmp_path):
    def copy(source):
        target = tmp_path / os.path.basename(source)
        shutil.copytree(source, target)
        return target

    return copy


def _edit_csv(path, row, col, value):
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    rows[row][col] = value(rows[row][col]) if callable(value) else value
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)


def _edit_json(path, edit):
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    edit(payload)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def _rejects(failures, fragment):
    assert any(fragment in f for f in failures), failures


def _off(value):
    return value * (1 + 1e-6)


def _other_zone(zone):
    return gen.ZONES[(gen.ZONES.index(zone) + 1) % len(gen.ZONES)]


def test_real_outputs_pass(outputs):
    imu, imu_dir = outputs["imu"]
    assert checks.check_zone_imu(imu, imu_dir, trees=10) == []
    rssi, rssi_dir = outputs["rssi"]
    assert checks.check_zone_rssi(rssi, rssi_dir) == []
    walk, coords_dir, text = outputs["coords"]
    assert checks.check_coords(walk, coords_dir, text) == []
    small, compare_dir = outputs["compare"]
    assert checks.check_compare(small, compare_dir, families=COMPARE_FAMILIES) == []


def test_zone_rejects_flipped_prediction(outputs, copy_of):
    imu, source = outputs["imu"]
    out = copy_of(source)
    _edit_csv(out / "predictions.csv", 1, 2, _other_zone)
    _rejects(checks.check_zone_imu(imu, out, trees=10), "recount")


def test_zone_rejects_accuracy_off_by_a_millionth(outputs, copy_of):
    imu, source = outputs["imu"]
    out = copy_of(source)
    _edit_json(out / "report.json", lambda p: p.update(accuracy=_off(p["accuracy"])))
    _rejects(checks.check_zone_imu(imu, out, trees=10), "accuracy")


def test_zone_rejects_confidence_off_the_vote_grid(outputs, copy_of):
    imu, source = outputs["imu"]
    out = copy_of(source)
    _edit_csv(out / "predictions.csv", 1, 3, lambda v: repr(float(v) + 0.05))
    _edit_csv(out / "predictions.csv", 1, 4, lambda v: repr(float(v) - 0.05))
    _rejects(checks.check_zone_imu(imu, out, trees=10), "multiples of 1/10")


def test_zone_rejects_wrong_true_label(outputs, copy_of):
    imu, source = outputs["imu"]
    out = copy_of(source)
    _edit_csv(out / "predictions.csv", 2, 1, _other_zone)
    _rejects(checks.check_zone_imu(imu, out, trees=10), "true labels")


def test_imu_rejects_accuracy_below_the_bayes_margin(outputs):
    imu, out = outputs["imu"]
    _rejects(checks.check_zone_imu(imu, out, trees=10, margin=-0.5), "nearest-signature")


def test_rssi_rejects_confidences_unlike_brute_force(outputs, copy_of):
    rssi, source = outputs["rssi"]
    out = copy_of(source)
    with open(out / "predictions.csv", encoding="utf-8") as handle:
        first = next(csv.reader(handle.readlines()[1:2]))
    shifted = first[4:] + first[3:4]  # rotate the four confidences
    for col, value in enumerate(shifted, start=3):
        _edit_csv(out / "predictions.csv", 1, col, value)
    _rejects(checks.check_zone_rssi(rssi, out), "brute force")


def test_rssi_rejects_disagreement_with_strongest_scanner(outputs, copy_of):
    rssi, source = outputs["rssi"]
    out = copy_of(source)
    for row in range(1, 11):  # 10 of 120 rows is more than the 1% allowed
        _edit_csv(out / "predictions.csv", row, 2, _other_zone)
    _rejects(checks.check_zone_rssi(rssi, out), "strongest-scanner")


def test_coords_rejects_prediction_off_least_squares(outputs, copy_of):
    walk, source, text = outputs["coords"]
    out = copy_of(source)
    _edit_csv(out / "predictions_x.csv", 5, 2, lambda v: repr(float(v) + 1e-3))
    _rejects(checks.check_coords(walk, out, text), "least squares")


def test_coords_rejects_rmse_off_by_a_millionth(outputs, copy_of):
    walk, source, text = outputs["coords"]
    out = copy_of(source)
    _edit_json(out / "report.json", lambda p: p.update(rmse_y_cm=_off(p["rmse_y_cm"])))
    _rejects(checks.check_coords(walk, out, text), "rmse_y")


def test_coords_rejects_horizontal_error_off_by_a_millionth(outputs, copy_of):
    walk, source, text = outputs["coords"]
    out = copy_of(source)
    _edit_json(out / "report.json", lambda p: p.update(horizontal_error_cm=_off(p["horizontal_error_cm"])))
    _rejects(checks.check_coords(walk, out, text), "hypot")


def test_coords_rejects_wrong_zero_distance_note(outputs):
    walk, out, text = outputs["coords"]
    wrong = text.replace(f"note: {walk.zero_rows} row", f"note: {walk.zero_rows + 1} row")
    _rejects(checks.check_coords(walk, out, wrong), "zero-distance")


def test_coords_rejects_missing_row(outputs, copy_of):
    walk, source, text = outputs["coords"]
    out = copy_of(source)
    for axis in ("x", "y"):
        path = out / f"predictions_{axis}.csv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines[:-1]), encoding="utf-8")
    _rejects(checks.check_coords(walk, out, text), "test rows")


def test_compare_rejects_knn_cell_off_by_a_millionth(outputs, copy_of):
    small, source = outputs["compare"]
    out = copy_of(source)
    _edit_json(out / "report.json", lambda p: p["aggregate"]["k-NN"].update(rmse_x_cm=_off(p["aggregate"]["k-NN"]["rmse_x_cm"])))
    _rejects(checks.check_compare(small, out, families=COMPARE_FAMILIES), "k-NN: rmse_x")


def test_compare_rejects_linear_cell_off_by_a_millionth(outputs, copy_of):
    small, source = outputs["compare"]
    out = copy_of(source)
    cell = lambda p: p["aggregate"]["Linear Regression"]
    _edit_json(out / "report.json", lambda p: cell(p).update(rmse_y_cm=_off(cell(p)["rmse_y_cm"])))
    _rejects(checks.check_compare(small, out, families=COMPARE_FAMILIES), "Linear Regression: rmse_y")


def test_compare_rejects_hypot_violation(outputs, copy_of):
    small, source = outputs["compare"]
    out = copy_of(source)
    cell = lambda p: p["aggregate"]["Decision Tree"]
    _edit_json(out / "report.json", lambda p: cell(p).update(horizontal_error_cm=_off(cell(p)["horizontal_error_cm"])))
    _rejects(checks.check_compare(small, out, families=COMPARE_FAMILIES), "hypot")


def test_compare_rejects_cell_no_better_than_the_mean(outputs, copy_of):
    small, source = outputs["compare"]
    out = copy_of(source)
    cell = lambda p: p["aggregate"]["Decision Tree"]
    _edit_json(out / "report.json", lambda p: cell(p).update(rmse_x_cm=1e6, horizontal_error_cm=1e6))
    _rejects(checks.check_compare(small, out, families=COMPARE_FAMILIES), "train mean")


def test_compare_rejects_unsorted_ranking(outputs, copy_of):
    small, source = outputs["compare"]
    out = copy_of(source)
    _edit_json(out / "report.json", lambda p: p["ranking"]["by_rmse_x"].reverse())
    _rejects(checks.check_compare(small, out, families=COMPARE_FAMILIES), "by_rmse_x")


def test_compare_rejects_failed_family(outputs, copy_of):
    small, source = outputs["compare"]
    out = copy_of(source)
    _edit_json(out / "report.json", lambda p: p["aggregate"].update({"k-NN": {"failed": "diverged"}}))
    _rejects(checks.check_compare(small, out, families=COMPARE_FAMILIES), "failed")


def test_plain_split_matches_the_program():
    from locbench.data import SplitConfig, split_indices

    for n, seed in ((250, 42), (101, 7)):
        mine = checks.plain_split(n, seed)
        theirs = split_indices(n, SplitConfig(train_ratio=0.7, seed=seed))
        assert all((a == b).all() for a, b in zip(mine, theirs))


def test_generators_repeat_by_seed(tmp_path):
    for make in (gen.imu_rows, gen.rssi_rows, gen.beacon_walk):
        make(500, 9, tmp_path / "a.csv")
        make(500, 9, tmp_path / "b.csv")
        make(500, 10, tmp_path / "c.csv")
        a, b, c = ((tmp_path / f"{x}.csv").read_bytes() for x in "abc")
        assert a == b != c
