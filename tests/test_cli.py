import csv
import errno
import json
import os

import pytest

from locbench import cli
from locbench.activity import bundled_models_path
from locbench.cli import CliUsageError, _parse_seeds, run_cli
from locbench.data import (
    Dataset,
    SplitConfig,
    parse_beacon_csv,
    parse_imu_csv,
    parse_rssi_csv,
    split_indices,
    synthetic_walk_dataset,
    write_csv,
)
from locbench.learners import MAX_LAYER_WIDTH, MAX_LAYERS, MAX_TREES, PARAMS, REGISTRY
from locbench.pipelines import ComparisonResult
from locbench.render import to_json


def run(args):
    return run_cli(list(args))


@pytest.fixture()
def beacon_csv(tmp_path):
    path = tmp_path / "beacons.csv"
    code = run(["synth", "--kind", "beacon", "--rows", "120", "--out", str(path), "--seed", "5"])
    assert code == 0
    return path


class TestSynth:
    def test_beacon_file_parses_back(self, beacon_csv):
        ds = parse_beacon_csv(beacon_csv)
        assert len(ds) == 120
        assert ds.schema_tag == "beacon"

    def test_rssi_and_imu_kinds(self, tmp_path):
        rssi = tmp_path / "r.csv"
        imu = tmp_path / "i.csv"
        assert run(["synth", "--kind", "rssi", "--rows", "40", "--out", str(rssi)]) == 0
        assert run(["synth", "--kind", "imu", "--rows", "40", "--out", str(imu)]) == 0
        assert len(parse_rssi_csv(rssi)) == 40
        assert len(parse_imu_csv(imu)) == 40

    def test_same_seed_same_file(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["synth", "--rows", "30", "--out", str(a), "--seed", "3"])
        run(["synth", "--rows", "30", "--out", str(b), "--seed", "3"])
        assert a.read_bytes() == b.read_bytes()


class TestCoords:
    def test_end_to_end_report_files(self, beacon_csv, tmp_path, capsys):
        out = tmp_path / "run1"
        code = run(
            [
                "coords",
                "--data",
                str(beacon_csv),
                "--model",
                "random_forest",
                "--trees",
                "20",
                "--depth",
                "10",
                "--seed",
                "7",
                "--out-dir",
                str(out),
            ]
        )
        assert code == 0
        console = capsys.readouterr().out
        assert "seed = 7" in console  # effective configuration is echoed
        assert "horizontal_error" in console
        report = json.loads((out / "report.json").read_text())
        assert set(report) >= {
            "rmse_x_cm",
            "rmse_y_cm",
            "horizontal_error_cm",
            "feature_importance",
            "n",
        }
        assert report["horizontal_error_cm"] > 0
        x_csv = (out / "predictions_x.csv").read_text().splitlines()
        assert x_csv[0] == (
            "Row No.,Position X,prediction(Position X),Distance A,Distance B,Distance C,Time"
        )
        assert len(x_csv) == report["n"] + 1
        assert (out / "predictions_y.csv").exists()

    def test_byte_identical_reruns(self, beacon_csv, tmp_path):
        outs = []
        for name in ("first", "second"):
            out = tmp_path / name
            code = run(
                [
                    "coords",
                    "--data",
                    str(beacon_csv),
                    "--trees",
                    "10",
                    "--seed",
                    "9",
                    "--out-dir",
                    str(out),
                ]
            )
            assert code == 0
            outs.append(out)
        for name in ("report.json", "predictions_x.csv", "predictions_y.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_time_cells_round_trip_through_a_csv_reader(self, tmp_path):
        walk = synthetic_walk_dataset(rows=20, seed=4)
        times = [f'day {i}, "t{i}"' + ("\r\nnext" if i % 3 else "\r") for i in range(20)]
        data = tmp_path / "quoted.csv"
        write_csv(Dataset("beacon", walk.values, times=times), data)
        assert list(parse_beacon_csv(data).times) == times
        out = tmp_path / "quoted"
        args = ["--model", "linear_regression", "--seed", "3", "--out-dir", str(out)]
        assert run(["coords", "--data", str(data), *args]) == 0
        _, test_idx = split_indices(20, SplitConfig(train_ratio=0.7, seed=3))
        for name in ("predictions_x.csv", "predictions_y.csv"):
            with open(out / name, newline="", encoding="utf-8") as handle:
                records = list(csv.reader(handle))
            assert {len(record) for record in records} == {7}
            assert [record[6] for record in records[1:]] == [times[i] for i in test_idx]

    def test_missing_file_exits_one(self, tmp_path, capsys):
        code = run(["coords", "--data", str(tmp_path / "nope.csv"), "--out-dir", str(tmp_path)])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_flag_exits_one(self, beacon_csv, capsys):
        assert run(["coords", "--data", str(beacon_csv), "--bogus"]) == 1


class TestZoneCommands:
    def test_zone_rssi_run(self, tmp_path, capsys):
        data = tmp_path / "r.csv"
        run(["synth", "--kind", "rssi", "--rows", "150", "--out", str(data), "--seed", "2"])
        out = tmp_path / "zr"
        code = run(["zone-rssi", "--data", str(data), "--seed", "2", "--out-dir", str(out)])
        assert code == 0
        console = capsys.readouterr().out
        assert "accuracy" in console
        report = json.loads((out / "report.json").read_text())
        assert report["accuracy"] > 0.9
        confusion = (out / "confusion.md").read_text()
        assert confusion.startswith("accuracy:")
        assert "pred. bedroom" in confusion
        assert "class recall" in confusion
        predictions = (out / "predictions.csv").read_text().splitlines()
        assert predictions[0] == (
            "Row No.,Location,prediction(Location),confidence(bedroom),"
            "confidence(kitchen),confidence(office),confidence(toilet)"
        )

    def test_zone_imu_run_with_window(self, tmp_path):
        data = tmp_path / "i.csv"
        run(["synth", "--kind", "imu", "--rows", "240", "--out", str(data), "--seed", "3"])
        out = tmp_path / "zi"
        code = run(
            [
                "zone-imu",
                "--data",
                str(data),
                "--trees",
                "20",
                "--window",
                "3",
                "--seed",
                "3",
                "--out-dir",
                str(out),
            ]
        )
        assert code == 0
        assert (out / "report.json").exists()

    def test_overflowing_window_exits_one(self, tmp_path, capsys):
        data = tmp_path / "i.csv"
        run(["synth", "--kind", "imu", "--rows", "240", "--out", str(data), "--seed", "3"])
        lines = data.read_text().splitlines(keepends=True)
        assert lines[1].split(",")[6] == lines[2].split(",")[6]  # one run of one zone
        for i in (1, 2):
            lines[i] = "1e308" + lines[i][lines[i].index(",") :]
        data.write_text("".join(lines))
        capsys.readouterr()
        out = tmp_path / "out"
        argv = ["zone-imu", "--data", str(data), "--window", "2", "--trees", "5"]
        assert run(argv + ["--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: window=2: the mean or standard deviation of the window of data rows "
            "1..2 overflows\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("window", ["241", str(2**63 - 1), "99999999999999999999999"])
    def test_window_longer_than_the_rows_exits_one(self, tmp_path, capsys, window):
        # The largest window does not fit numpy's integers.
        data = tmp_path / "i.csv"
        run(["synth", "--kind", "imu", "--rows", "240", "--out", str(data), "--seed", "3"])
        capsys.readouterr()
        out = tmp_path / "out"
        argv = ["zone-imu", "--data", str(data), "--window", window, "--trees", "5"]
        assert run(argv + ["--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: window={window} leaves no complete windows; dataset runs are too short\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("in_training", [1, 2], ids=["one-cell", "both-cells"])
    def test_overflowing_training_column_exits_one(self, tmp_path, capsys, in_training):
        # Two acc_x cells of 1e308: one or both land in the training rows.
        data = tmp_path / "i.csv"
        run(["synth", "--kind", "imu", "--rows", "240", "--out", str(data), "--seed", "3"])
        zones = parse_imu_csv(data).zones
        train_idx, test_idx = split_indices(240, SplitConfig(0.7, seed=3, stratified=True), zones)
        rows = [*train_idx[:in_training], *test_idx[: 2 - in_training]]
        lines = data.read_text().splitlines(keepends=True)
        for row in rows:
            lines[row + 1] = "1e308" + lines[row + 1][lines[row + 1].index(",") :]
        data.write_text("".join(lines))
        capsys.readouterr()
        out = tmp_path / "out"
        argv = ["zone-imu", "--data", str(data), "--trees", "5", "--seed", "3"]
        assert run(argv + ["--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: feature column 0: the mean or standard deviation of the training rows "
            "overflows\n"
        )
        assert not out.exists()

    def test_test_row_cell_that_overflows_when_scaled_exits_one(self, tmp_path, capsys):
        # acc_x's training scale is below 1, so 1.5e308 in a test row passes the
        # float limit when standardized, though the parser accepts it.
        data = tmp_path / "i.csv"
        run(["synth", "--kind", "imu", "--rows", "240", "--out", str(data), "--seed", "3"])
        dataset = parse_imu_csv(data)
        train_idx, test_idx = split_indices(
            240, SplitConfig(0.7, seed=3, stratified=True), dataset.zones
        )
        assert dataset.values[train_idx, 0].std() < 0.8
        lines = data.read_text().splitlines(keepends=True)
        line = lines[test_idx[0] + 1]
        lines[test_idx[0] + 1] = "1.5e308" + line[line.index(",") :]
        data.write_text("".join(lines))
        capsys.readouterr()
        out = tmp_path / "out"
        argv = ["zone-imu", "--data", str(data), "--trees", "5", "--seed", "3"]
        assert run(argv + ["--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: feature column 0: a value overflows when scaled by the training rows' "
            "mean and standard deviation\n"
        )
        assert not out.exists()

    def test_wrong_schema_is_input_error(self, beacon_csv, tmp_path):
        assert run(["zone-rssi", "--data", str(beacon_csv), "--out-dir", str(tmp_path)]) == 1


class TestCompare:
    def test_comparison_outputs(self, tmp_path):
        data = tmp_path / "b.csv"
        run(["synth", "--rows", "80", "--out", str(data), "--seed", "4"])
        out = tmp_path / "cmp"
        code = run(
            [
                "compare",
                "--data",
                str(data),
                "--seeds",
                "1..2",
                "--families",
                "random_forest,linear_regression,knn",
                "--out-dir",
                str(out),
            ]
        )
        assert code == 0
        csv_lines = (out / "comparison.csv").read_text().splitlines()
        assert csv_lines[0] == (
            "Learning Approach,RMSE in X-Direction,RMSE in Y-Direction,Horizontal Error"
        )
        assert len(csv_lines) == 4
        report = json.loads((out / "report.json").read_text())
        assert report["seeds"] == [1, 2]
        assert "ranking" in report
        assert (out / "comparison.md").exists()

    def test_seed_list_forms(self, tmp_path):
        data = tmp_path / "b.csv"
        run(["synth", "--rows", "60", "--out", str(data)])
        out = tmp_path / "cmp2"
        code = run(
            [
                "compare",
                "--data",
                str(data),
                "--seeds",
                "3,9",
                "--families",
                "linear_regression",
                "--out-dir",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["seeds"] == [3, 9]

    @pytest.mark.parametrize(
        "text, count",
        [("1..1000", 1000), ("-5..994", 1000), (",".join(map(str, range(1000))), 1000)],
    )
    def test_seed_limit_admits_a_thousand(self, text, count):
        assert len(_parse_seeds(text)) == count

    @pytest.mark.parametrize(
        "text",
        ["1..1001", ",".join(map(str, range(1001))), "0..100000000000000000000"],
        ids=["range", "list", "past-ssize"],
    )
    def test_seed_limit_rejects_a_thousand_and_one(self, text):
        with pytest.raises(CliUsageError, match="at most 1000"):
            _parse_seeds(text)


    def test_default_families_are_the_registry_in_order(self, beacon_csv, tmp_path, monkeypatch):
        received = []

        def compare_models(dataset, specs, seeds, train_ratio):
            # Fits nothing: every family fails on every seed.
            received.append((specs, seeds, train_ratio))
            failed = "failed: not fitted"
            per_seed = {spec.family: dict.fromkeys(seeds, failed) for spec in specs}
            aggregate = dict.fromkeys(per_seed, failed)
            return ComparisonResult(aggregate, per_seed, tuple(seeds), ranking=None)

        monkeypatch.setattr(cli, "compare_models", compare_models)
        out = tmp_path / "out"
        assert run(["compare", "--data", str(beacon_csv), "--out-dir", str(out)]) == 0
        [(specs, seeds, train_ratio)] = received
        assert [spec.family for spec in specs] == list(REGISTRY)
        assert seeds == (42,) and train_ratio == 0.7
        labels = [line.split(",")[0] for line in (out / "comparison.csv").read_text().splitlines()]
        assert labels[1:] == [family.label for family in REGISTRY.values()]


class TestReportSets:
    """A directory in the place of one report leaves the whole set unwritten."""

    @pytest.fixture(scope="class")
    def data(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("sets")
        paths = {"errors": root / "errors.csv"}
        paths["errors"].write_text("3\n4\n")
        for kind, rows in (("beacon", 80), ("rssi", 150)):
            paths[kind] = root / f"{kind}.csv"
            argv = ["synth", "--kind", kind, "--rows", str(rows), "--out", str(paths[kind])]
            assert run(argv) == 0
        return paths

    @staticmethod
    def tree(out):
        return {
            path.relative_to(out): path.read_bytes() if path.is_file() else None
            for path in out.rglob("*")
        }

    @pytest.mark.parametrize(
        "command,report",
        [
            ("zone-rssi", "report.json"),
            ("zone-rssi", "predictions.csv"),
            ("zone-rssi", "confusion.md"),
            ("coords", "report.json"),
            ("coords", "predictions_x.csv"),
            ("coords", "predictions_y.csv"),
            ("compare", "report.json"),
            ("compare", "comparison.csv"),
            ("compare", "comparison.md"),
            ("metrics", "report.json"),
        ],
    )
    def test_directory_in_place_of_a_report(self, command, report, data, tmp_path, capsys):
        beacon, errors = str(data["beacon"]), str(data["errors"])
        argv = {
            "zone-rssi": ["zone-rssi", "--data", str(data["rssi"])],
            "coords": ["coords", "--data", beacon, "--model", "linear_regression"],
            "compare": ["compare", "--data", beacon, "--families", "linear_regression"],
            "metrics": ["metrics", "--errors-x", errors, "--errors-y", errors],
        }[command]
        out = tmp_path / "out"
        (out / report).mkdir(parents=True)
        (out / "notes.txt").write_text("kept\n")
        before = self.tree(out)
        capsys.readouterr()
        assert run(argv + ["--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == f"error: Is a directory: {out / report}\n"
        assert self.tree(out) == before


class TestFormats:
    """Each ``--format`` prints the summary that the report files hold."""

    @pytest.fixture(scope="class")
    def data(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("formats")
        paths = {"errors": root / "errors.csv"}
        paths["errors"].write_text("error\n3\n4\n")
        for kind, rows in (("beacon", 80), ("rssi", 150), ("imu", 240)):
            paths[kind] = root / f"{kind}.csv"
            argv = ["synth", "--kind", kind, "--rows", str(rows), "--out", str(paths[kind])]
            assert run(argv) == 0
        return paths

    def console(self, argv, out, capsys):
        capsys.readouterr()
        assert run(argv + ["--out-dir", str(out)]) == 0
        return capsys.readouterr().out

    @staticmethod
    def after(console, start):
        """The console text after the first line that begins with ``start``."""
        return console.partition("\n" + start)[2].partition("\n")[2]

    @pytest.mark.parametrize("fmt", ["md", "csv", "json"])
    @pytest.mark.parametrize("kind", ["rssi", "imu"])
    def test_zone(self, kind, fmt, data, tmp_path, capsys):
        out = tmp_path / "out"
        argv = [f"zone-{kind}", "--data", str(data[kind]), "--model", "knn", "--format", fmt]
        console = self.console(argv, out, capsys)
        report = json.loads((out / "report.json").read_text())
        summary = {
            "md": (out / "confusion.md").read_text(),
            "csv": "".join(
                f"{key}: {value}\n"
                for key, value in sorted(report.items())
                if isinstance(value, (int, float, str))
            ),
            "json": (out / "report.json").read_text(),
        }[fmt]
        assert self.after(console, "accuracy: ") == summary + f"reports written to {out}\n"

    @pytest.mark.parametrize("fmt", ["md", "csv", "json"])
    def test_coords(self, fmt, data, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["coords", "--data", str(data["beacon"]), "--model", "linear_regression"]
        console = self.console(argv + ["--format", fmt], out, capsys)
        report = json.loads((out / "report.json").read_text())
        summary = {k: v for k, v in report.items() if not k.startswith("errors_")}
        printed = to_json(summary) if fmt == "json" else ""
        assert self.after(console, "rmse_x: ") == printed + f"reports written to {out}\n"

    @pytest.mark.parametrize("fmt", ["md", "csv", "json"])
    def test_compare(self, fmt, data, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["compare", "--data", str(data["beacon"]), "--families", "knn,linear_regression"]
        console = self.console(argv + ["--format", fmt], out, capsys)
        summary = {
            "md": (out / "comparison.md").read_text(),
            "csv": (out / "comparison.csv").read_text(),
            "json": to_json(json.loads((out / "report.json").read_text())["aggregate"]),
        }[fmt]
        assert console.endswith(f"\n{summary}reports written to {out}\n")

    @pytest.mark.parametrize("fmt", ["md", "csv", "json"])
    def test_metrics(self, fmt, data, tmp_path, capsys):
        out = tmp_path / "out"
        errors = str(data["errors"])
        argv = ["metrics", "--errors-x", errors, "--errors-y", errors, "--format", fmt]
        console = self.console(argv, out, capsys)
        report = (out / "report.json").read_text()
        assert self.after(console, "rmse_x: ") == (report if fmt == "json" else "")
        assert json.loads(report)["rmse_x_cm"] == pytest.approx(12.5**0.5)


class TestMetrics:
    def test_hand_checked_values(self, tmp_path, capsys):
        ex = tmp_path / "ex.csv"
        ey = tmp_path / "ey.csv"
        ex.write_text("error\n3\n4\n")
        ey.write_text("error\n0\n0\n")
        code = run(
            ["metrics", "--errors-x", str(ex), "--errors-y", str(ey), "--out-dir", str(tmp_path)]
        )
        assert code == 0
        console = capsys.readouterr().out
        assert "rmse_x: 3.5355" in console
        assert "rmse_y: 0.0000" in console
        assert "horizontal_error: 3.5355" in console

    def test_headerless_files_accepted(self, tmp_path):
        ex = tmp_path / "ex.csv"
        ey = tmp_path / "ey.csv"
        ex.write_text("1.0\n-1.0\n")
        ey.write_text("2.0\n-2.0\n")
        assert run(
            ["metrics", "--errors-x", str(ex), "--errors-y", str(ey), "--out-dir", str(tmp_path)]
        ) == 0

    def test_empty_error_file_exits_one(self, tmp_path):
        ex = tmp_path / "ex.csv"
        ey = tmp_path / "ey.csv"
        ex.write_text("error\n")
        ey.write_text("error\n1\n")
        assert run(
            ["metrics", "--errors-x", str(ex), "--errors-y", str(ey), "--out-dir", str(tmp_path)]
        ) == 1

    def test_byte_order_mark_keeps_the_first_value(self, tmp_path, capsys):
        ex = tmp_path / "ex.csv"
        ey = tmp_path / "ey.csv"
        ex.write_bytes(b"\xef\xbb\xbf3.0\n4.0\n")
        ey.write_text("0\n0\n")
        code = run(
            ["metrics", "--errors-x", str(ex), "--errors-y", str(ey), "--out-dir", str(tmp_path)]
        )
        assert code == 0
        assert "rmse_x: 3.5355" in capsys.readouterr().out

    def test_non_utf8_error_file_exits_one(self, tmp_path, capsys):
        ex = tmp_path / "ex.csv"
        ey = tmp_path / "ey.csv"
        ex.write_bytes("error\n1\ncaf\xe9\n".encode("latin-1"))
        ey.write_text("error\n1\n")
        code = run(
            ["metrics", "--errors-x", str(ex), "--errors-y", str(ey), "--out-dir", str(tmp_path)]
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: {ex}: file is not UTF-8 text\n"


class TestValidateActivities:
    def test_bundled_fixtures_pass(self, capsys):
        assert run(["validate-activities"]) == 0
        console = capsys.readouterr().out
        assert console.count("pass") >= 2

    def test_broken_fixture_fails(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text(
            "model: broken\nthreshold: 0.9\n"
            "1, a, 0.5, c, 0.5, core|start|end\n"
            "2, b, 0.4, d, 0.4, -\n"  # weights sum to 0.9
        )
        code = run(["validate-activities", "--file", str(path)])
        assert code == 1
        assert "weight sum" in capsys.readouterr().out

    def test_empty_file_exits_one(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("")
        code = run(["validate-activities", "--file", str(path)])
        assert code == 1
        assert "no models found" in capsys.readouterr().err

    def test_bad_threshold_is_an_error_line_not_a_traceback(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("model: broken\nthreshold: abc\n1, a, 1.0, c, 1.0, core|start|end\n")
        code = run(["validate-activities", "--file", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: line 2: non-numeric threshold 'abc'")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "weights", [("inf", "-inf"), ("1e308", "1e308")], ids=["inf-minus-inf", "overflow"]
    )
    def test_weights_without_a_finite_sum_fail_once_each(self, weights, tmp_path, capsys):
        path = tmp_path / "huge.txt"
        path.write_text(
            "model: huge\nthreshold: 0.9\n"
            f"1, a, {weights[0]}, c, 0.5, core|start\n"
            f"2, b, {weights[1]}, d, 0.5, end\n"
        )
        code = run(["validate-activities", "--file", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ""
        lines = captured.out.splitlines()
        failures = lines[lines.index("FAIL  huge  (threshold 0.9, 2 elements)") + 1 :]
        assert failures[:2] == [
            f"      - atomic element 1 weight {float(weights[0])} outside (0, 1]",
            f"      - atomic element 2 weight {float(weights[1])} outside (0, 1]",
        ]
        assert not any("sum" in line or "total weight" in line for line in failures)

    def test_byte_order_mark_is_skipped(self, tmp_path, capsys):
        path = tmp_path / "bom.txt"
        path.write_bytes(b"\xef\xbb\xbf" + bundled_models_path().read_bytes())
        assert run(["validate-activities", "--file", str(path)]) == 0
        assert capsys.readouterr().out.count("pass") >= 2

    def test_non_utf8_file_exits_one(self, tmp_path, capsys):
        path = tmp_path / "latin1.txt"
        path.write_bytes("model: caf\xe9\nthreshold: 0.9\n".encode("latin-1"))
        code = run(["validate-activities", "--file", str(path)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {path}: file is not UTF-8 text\n"


class TestCliBasics:
    def test_learner_flags_are_the_params_with_help(self):
        flags = ("k", "trees", "depth", "rate", "layers", "c", "epsilon", "gamma")
        assert cli._LEARNER_FLAGS == flags

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "locbench" in capsys.readouterr().out

    def test_training_divergence_exits_two(self, beacon_csv, tmp_path, monkeypatch, capsys):
        from locbench import cli
        from locbench.learners import TrainingDivergedError

        def explode(*args, **kwargs):
            raise TrainingDivergedError("training loss became non-finite at epoch 3", epoch=3)

        monkeypatch.setattr(cli, "run_coords", explode)
        code = run(["coords", "--data", str(beacon_csv), "--out-dir", str(tmp_path / "d")])
        assert code == 2
        assert "diverged" in capsys.readouterr().err

    def test_out_dir_env_fallback(self, tmp_path, monkeypatch):
        data = tmp_path / "b.csv"
        run(["synth", "--rows", "50", "--out", str(data)])
        target = tmp_path / "from-env"
        monkeypatch.setenv("LOCBENCH_OUT_DIR", str(target))
        code = run(["coords", "--data", str(data), "--trees", "5", "--seed", "1"])
        assert code == 0
        assert (target / "report.json").exists()

    def test_seed_always_echoed(self, tmp_path, capsys):
        data = tmp_path / "b.csv"
        run(["synth", "--rows", "50", "--out", str(data)])
        capsys.readouterr()
        run(["coords", "--data", str(data), "--trees", "5", "--out-dir", str(tmp_path / "o")])
        assert "seed = 42" in capsys.readouterr().out  # the default, made explicit


class TestBadArguments:
    @pytest.mark.parametrize(
        "argv",
        [
            ["compare", "--seeds", "abc"],
            ["compare", "--seeds", "1.."],
            ["coords", "--model", "ann", "--layers", "a,b"],
            ["coords", "--model", "svr", "--c", "inf"],
            ["coords", "--model", "svr", "--epsilon", "inf"],
            ["coords", "--model", "svr", "--gamma", "inf"],
            ["compare", "--families", "knn,knn"],
            ["compare", "--families", ","],
            ["compare", "--seeds", "3,3", "--families", "linear_regression"],
            ["compare", "--seeds", "0..1000000000000000"],
        ],
    )
    def test_unparsable_values_exit_one(self, argv, beacon_csv, tmp_path, capsys):
        code = run(argv + ["--data", str(beacon_csv), "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["compare", "--data", "{data}"], ["--seed", "7"]),
            (["synth", "--out", "{data}"], ["--out-dir", "{out}"]),
            (["synth", "--out", "{data}"], ["--format", "json"]),
            (["validate-activities"], ["--seed", "7"]),
            (["validate-activities"], ["--out-dir", "{out}"]),
            (["validate-activities"], ["--format", "json"]),
            (["metrics", "--errors-x", "{data}", "--errors-y", "{data}"], ["--seed", "7"]),
            # Abbreviations are not expanded to the flags they begin.
            (["coords", "--data", "{data}"], ["--out", "{out}"]),
            (["zone-imu", "--data", "{data}"], ["--wind", "3"]),
        ],
        ids=lambda parts: parts[0],
    )
    def test_flags_a_subcommand_does_not_read_exit_one(self, argv, flag, tmp_path, capsys):
        paths = {"data": str(tmp_path / "data.csv"), "out": str(tmp_path / "out")}
        flag = [part.format(**paths) for part in flag]
        assert run([part.format(**paths) for part in argv] + flag) == 1
        assert capsys.readouterr().err == f"error: unrecognized arguments: {' '.join(flag)}\n"
        assert not (tmp_path / "out").exists()

    def test_negative_synth_rows_exit_one(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert run(["synth", "--rows", "-5", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: --rows must be >= 0, got -5\n"
        assert not out.exists()

    @pytest.mark.parametrize("excess", [1, 10**13])
    def test_synth_rows_above_the_limit_exit_one(self, excess, tmp_path, capsys, monkeypatch):
        # Refused before a generator runs: none of them may be called.
        for name in ("synthetic_walk_dataset", "synthetic_rssi_dataset", "synthetic_imu_dataset"):
            monkeypatch.setattr(cli, name, None)
        limit = cli.MAX_SYNTH_ROWS
        out = tmp_path / "s.csv"
        assert run(["synth", "--rows", str(limit + excess), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: --rows must be <= {limit}, got {limit + excess}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, key, value",
        [
            (["zone-imu", "--trees", "{trees}"], "trees", "{trees}"),
            (["coords", "--model", "gbt", "--trees", "{trees}"], "trees", "{trees}"),
            (["coords", "--model", "ann", "--layers", "{width}"], "layers", "({width},)"),
            (
                ["zone-rssi", "--model", "deep_learning", "--layers", "50,{width}"],
                "layers",
                "(50, {width})",
            ),
        ],
    )
    @pytest.mark.parametrize("excess", [1, 10**13])
    def test_learner_sizes_above_the_limit_exit_one(
        self, argv, key, value, excess, tmp_path, capsys, monkeypatch
    ):
        # Refused before the data is read: no parser, pipeline or fit may run.
        for name in ("parse_beacon_csv", "parse_imu_csv", "parse_rssi_csv"):
            monkeypatch.setattr(cli, name, None)
        for name in ("run_coords", "run_zone_imu", "run_zone_rssi"):
            monkeypatch.setattr(cli, name, None)
        sizes = {"trees": MAX_TREES + excess, "width": MAX_LAYER_WIDTH + excess}
        argv = [part.format(**sizes) for part in argv]
        out = tmp_path / "out"
        data = tmp_path / "missing.csv"
        assert run(argv + ["--data", str(data), "--out-dir", str(out)]) == 1
        family = argv[argv.index("--model") + 1] if "--model" in argv else "random_forest"
        rule = PARAMS[key].rule
        got = value.format(**sizes)
        assert capsys.readouterr().err == f"error: {family}: {key} must be {rule}, got {got}\n"
        assert not out.exists()

    def test_more_hidden_layers_than_the_limit_exit_one(self, tmp_path, capsys, monkeypatch):
        # Refused before the data is read: no parser or pipeline may run.
        monkeypatch.setattr(cli, "parse_beacon_csv", None)
        monkeypatch.setattr(cli, "run_coords", None)
        layers = ",".join(["1"] * (MAX_LAYERS + 1))
        out = tmp_path / "out"
        data = tmp_path / "missing.csv"
        argv = ["coords", "--model", "ann", "--layers", layers, "--data", str(data)]
        assert run(argv + ["--out-dir", str(out)]) == 1
        rule, got = PARAMS["layers"].rule, (1,) * (MAX_LAYERS + 1)
        assert capsys.readouterr().err == f"error: ann: layers must be {rule}, got {got}\n"
        assert not out.exists()

    def test_negative_synth_seed_exit_one(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert run(["synth", "--seed", "-1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"
        assert not out.exists()

    def test_directory_as_data_exits_one(self, tmp_path, capsys):
        code = run(["coords", "--data", str(tmp_path), "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == f"error: Is a directory: {tmp_path}\n"

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-a-file"])
    def test_out_dir_that_cannot_be_a_directory_exits_one_before_the_fit(
        self, under, beacon_csv, tmp_path, capsys, monkeypatch
    ):
        blocker = tmp_path / "report.txt"
        blocker.write_text("kept\n")
        out = blocker / "out" if under else blocker
        fitted = []
        monkeypatch.setattr("locbench.cli.run_coords", lambda *args: fitted.append(args))
        capsys.readouterr()
        code = run(["coords", "--data", str(beacon_csv), "--out-dir", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: report directory {out}: {blocker} is not a directory\n"
        assert captured.out == "" and fitted == []
        assert blocker.read_text() == "kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["beacons.csv", "report.txt"]

    def test_data_path_under_a_file_exits_one(self, beacon_csv, tmp_path, capsys):
        data = beacon_csv / "rows.csv"
        code = run(["coords", "--data", str(data), "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == f"error: Not a directory: {data}\n"

    @pytest.mark.parametrize(
        "case", ["coords-data", "metrics-errors", "validate-activities-file", "coords-out-dir"]
    )
    def test_file_name_too_long_exits_one_before_the_fit(
        self, case, beacon_csv, tmp_path, capsys, monkeypatch
    ):
        long = str(tmp_path / ("x" * 300))
        out = str(tmp_path / "out")
        argv = {
            "coords-data": ["coords", "--data", long, "--out-dir", out],
            "metrics-errors": ["metrics", "--errors-x", long, "--errors-y", long, "--out-dir", out],
            "validate-activities-file": ["validate-activities", "--file", long],
            "coords-out-dir": ["coords", "--data", str(beacon_csv), "--out-dir", long],
        }[case]
        read, parse = [], cli.parse_beacon_csv
        monkeypatch.setattr(cli, "parse_beacon_csv", lambda path: read.append(path) or parse(path))
        capsys.readouterr()  # the fixture's synth line
        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: {os.strerror(errno.ENAMETOOLONG)}: {long}\n"
        assert read == ([long] if case == "coords-data" else [])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["beacons.csv"]

    def test_non_utf8_csv_exits_one(self, tmp_path, capsys):
        data = tmp_path / "latin1.csv"
        header = "Position X,Position Y,Distance A,Distance B,Distance C,Time\n"
        data.write_bytes(header.encode() + "1,2,3,4,5,café\n".encode("latin-1"))
        code = run(["coords", "--data", str(data), "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {data}: file is not UTF-8 text\n"

    def test_oversized_csv_cell_exits_one(self, tmp_path, capsys):
        data = tmp_path / "huge.csv"
        header = "position_x,position_y,distance_a,distance_b,distance_c,time\n"
        rows = "1,2,0.5,0.6,0.7,t\n" + "1,2,0.5,0.6,0.7," + "x" * 200_000 + "\n"
        data.write_text(header + rows)
        code = run(["coords", "--data", str(data), "--out-dir", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: {data}: row 3: field larger than field limit (131072)\n"
        assert not (tmp_path / "out").exists()

    def test_oversized_multiline_cell_is_named_by_its_first_line(self, tmp_path, capsys):
        data = tmp_path / "huge.csv"
        header = "position_x,position_y,distance_a,distance_b,distance_c,time\n"
        rows = "1,2,0.5,0.6,0.7,t\n" + '1,2,0.5,0.6,0.7,"a\nb\n' + "x" * 200_000 + '"\n'
        data.write_text(header + rows)
        assert run(["coords", "--data", str(data), "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {data}: row 3: field larger than field limit (131072)\n"

    def test_value_fault_above_an_oversized_field_is_the_one_named(self, tmp_path, capsys):
        # Faults are named in file order, whatever their kind: the bad value
        # on line 2 comes before the field over csv's limit on line 4.
        data = tmp_path / "huge.csv"
        header = "position_x,position_y,distance_a,distance_b,distance_c,time\n"
        rows = "1,2,oops,0.6,0.7,t\n1,2,0.5,0.6,0.7,t\n" + "1,2,0.5,0.6,0.7," + "x" * 200_000
        data.write_text(header + rows + "\n")
        assert run(["coords", "--data", str(data), "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err == "error: row 2: non-numeric value 'oops' in column 'distance_a'\n"

    def test_row_after_a_multiline_cell_is_named_by_its_line(self, tmp_path, capsys):
        data = tmp_path / "multiline.csv"
        header = "position_x,position_y,distance_a,distance_b,distance_c,time\n"
        # Line 2 holds a quoted time cell that ends on line 3; line 5 is faulty.
        rows = '1,2,0.5,0.6,0.7,"t\n0"\n1,2,0.5,0.6,0.7,t1\n1,2,oops,0.6,0.7,t2\n'
        data.write_text(header + rows)
        code = run(["coords", "--data", str(data), "--out-dir", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: row 5: non-numeric value 'oops' in column 'distance_a'\n"

    @pytest.mark.parametrize(
        "argv",
        [["coords"], ["zone-imu"], ["compare", "--families", "knn,linear_regression"]],
        ids=["coords", "zone-imu", "compare"],
    )
    def test_empty_training_side_exits_one(self, argv, tmp_path, capsys):
        data = tmp_path / "data.csv"
        kind = "imu" if argv[0] == "zone-imu" else "beacon"
        assert run(["synth", "--kind", kind, "--rows", "120", "--out", str(data)]) == 0
        capsys.readouterr()
        out = tmp_path / "out"
        code = run(argv + ["--data", str(data), "--train-ratio", "0.001", "--out-dir", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: split left no training rows; raise the train ratio\n"
        assert not out.exists()


class TestRbfSvrRowLimit:
    """The RBF SVR rejects more than 5,000 training rows (an n x n kernel);
    7,200 rows leave 5,040 for training at the default 0.7 split."""

    @pytest.fixture(scope="class")
    def large_beacon_csv(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("large") / "beacons.csv"
        assert run(["synth", "--kind", "beacon", "--rows", "7200", "--out", str(path)]) == 0
        return path

    def test_coords_svr_exits_one(self, large_beacon_csv, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["coords", "--data", str(large_beacon_csv), "--model", "svr"]
        code = run(argv + ["--out-dir", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the rbf kernel is limited to 5000 training rows")
        assert "Traceback" not in err
        assert not out.exists()

    def test_compare_records_failed_cell(self, large_beacon_csv, tmp_path):
        out = tmp_path / "out"
        argv = ["compare", "--data", str(large_beacon_csv), "--families", "svr,linear_regression"]
        assert run(argv + ["--out-dir", str(out)]) == 0
        aggregate = json.loads((out / "report.json").read_text())["aggregate"]
        assert aggregate["Support Vector Machine"]["failed"].startswith(
            "failed: the rbf kernel is limited to 5000 training rows"
        )
        assert "failed" not in aggregate["Linear Regression"]
