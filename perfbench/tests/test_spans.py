"""The traced run's wrappers resolve, restore, fail loudly, and count."""

from __future__ import annotations

import contextlib
import io

import pytest

import gen
import spans
from locbench.cli import run_cli


def test_every_target_resolves():
    for target in spans.TARGETS:
        owner, name, value = spans._resolve(target)
        assert callable(value), target


def test_install_wraps_and_uninstall_restores():
    originals = [spans._resolve(t)[2] for t in spans.TARGETS]
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = [spans._resolve(t)[2] for t in spans.TARGETS]
        assert all(w.__wrapped__ is o for w, o in zip(wrapped, originals))
    finally:
        tracer.uninstall()
    assert [spans._resolve(t)[2] for t in spans.TARGETS] == originals


def test_missing_target_fails_loudly_and_patches_nothing():
    import locbench.cli

    original = locbench.cli.run_coords
    targets = (
        spans.Target("locbench.cli", "run_coords", "pipelines"),
        spans.Target("locbench.cli", "no_such_function", "pipelines"),
    )
    with pytest.raises(LookupError, match="no_such_function"):
        spans.Tracer(targets).install()
    assert locbench.cli.run_coords is original
    with pytest.raises(LookupError, match="NoSuchModel"):
        spans.Tracer((spans.Target("locbench.learners", "NoSuchModel.predict", "x"),)).install()


def _traced(argv):
    tracer = spans.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code, wall, metrics = tracer.run(run_cli, argv)
    finally:
        tracer.uninstall()
    assert code == 0
    return wall, metrics


def test_forest_counts_come_from_call_arguments(tmp_path):
    gen.imu_rows(300, 5, tmp_path / "imu.csv")
    wall, m = _traced(["zone-imu", "--data", str(tmp_path / "imu.csv"), "--trees", "7", "--out-dir", str(tmp_path / "o")])
    assert set(m) == set(spans.LAYER_METRICS) | {"trace.covered_s"}
    assert m["data.parse_rows"] == 300
    assert m["learners.tree.fits"] == 7
    assert m["learners.forest.fit_rows"] == 210 * 7  # stratified 70% of 300 rows
    assert m["learners.forest.predict_rows"] == 90
    assert m["learners.neighbors.distance_cells"] == 0
    assert m["render.bytes"] == sum(p.stat().st_size for p in (tmp_path / "o").iterdir())
    assert 0 < m["learners.forest.fit_s"] <= m["learners.fit_s"] <= m["trace.covered_s"] <= wall
    assert m["cli.self_s"] >= 0 and m["pipelines.self_s"] >= 0


def test_knn_and_linear_counts(tmp_path):
    gen.rssi_rows(500, 5, tmp_path / "rssi.csv")
    _, m = _traced(["zone-rssi", "--data", str(tmp_path / "rssi.csv"), "--out-dir", str(tmp_path / "r")])
    assert m["learners.neighbors.distance_cells"] == 100 * 400
    assert m["learners.tree.fits"] == 0 and m["learners.forest.fit_s"] == 0
    gen.beacon_walk(1000, 5, tmp_path / "walk.csv")
    _, m = _traced(["coords", "--data", str(tmp_path / "walk.csv"), "--model", "linear_regression", "--out-dir", str(tmp_path / "c")])
    assert m["data.parse_rows"] == 1000
    assert m["learners.linear.fit_s"] > 0 and m["learners.linear.predict_s"] > 0
