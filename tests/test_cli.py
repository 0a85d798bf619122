import json

import pytest

from locbench.cli import run_cli
from locbench.data import parse_beacon_csv, parse_imu_csv, parse_rssi_csv


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
    def test_bundled_fixtures_pass(self, capsys, tmp_path):
        assert run(["validate-activities", "--out-dir", str(tmp_path)]) == 0
        console = capsys.readouterr().out
        assert console.count("pass") >= 2

    def test_broken_fixture_fails(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text(
            "model: broken\nthreshold: 0.9\n"
            "1, a, 0.5, c, 0.5, core|start|end\n"
            "2, b, 0.4, d, 0.4, -\n"  # weights sum to 0.9
        )
        code = run(["validate-activities", "--file", str(path), "--out-dir", str(tmp_path)])
        assert code == 1
        assert "weight sum" in capsys.readouterr().out

    def test_empty_file_exits_one(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("")
        code = run(["validate-activities", "--file", str(path), "--out-dir", str(tmp_path)])
        assert code == 1
        assert "no models found" in capsys.readouterr().err

    def test_non_utf8_file_exits_one(self, tmp_path, capsys):
        path = tmp_path / "latin1.txt"
        path.write_bytes("model: caf\xe9\nthreshold: 0.9\n".encode("latin-1"))
        code = run(["validate-activities", "--file", str(path), "--out-dir", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {path}: file is not UTF-8 text\n"


class TestCliBasics:
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
        ],
    )
    def test_unparsable_values_exit_one(self, argv, beacon_csv, tmp_path, capsys):
        code = run(argv + ["--data", str(beacon_csv), "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    def test_negative_synth_rows_exit_one(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert run(["synth", "--rows", "-5", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: --rows must be >= 0, got -5\n"
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
