import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locbench.data import (
    DEFAULT_BEACONS,
    ZONES,
    Dataset,
    ParseError,
    SchemaError,
    SplitConfig,
    ValidationError,
    generate_synthetic_walk,
    parse_beacon_csv,
    parse_imu_csv,
    parse_rssi_csv,
    split_indices,
    synthetic_rssi_dataset,
    synthetic_walk_dataset,
    write_csv,
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestParseBeaconCsv:
    def test_basic_row(self, tmp_path):
        path = write(
            tmp_path,
            "b.csv",
            "Position X,Position Y,Distance A,Distance B,Distance C,Time\n"
            "122,180,0.877,0.769,1.457,2017 12:20:22.583\n",
        )
        ds = parse_beacon_csv(path)
        assert ds.schema_tag == "beacon"
        assert len(ds) == 1
        position_x, position_y, distance_a, distance_b, distance_c = ds.values[0]
        assert position_x == 122.0
        assert position_y == 180.0
        assert distance_a == 0.877
        assert distance_b == 0.769
        assert distance_c == 1.457
        assert ds.times[0] == "2017 12:20:22.583"

    def test_column_order_and_case_are_free(self, tmp_path):
        path = write(
            tmp_path,
            "b.csv",
            "time,DISTANCE C,distance_b,distance a,position-y,POSITION_X\n"
            "t0,3.0,2.0,1.0,20,10\n",
        )
        ds = parse_beacon_csv(path)
        assert tuple(ds.values[0, :2]) == (10.0, 20.0)
        assert tuple(ds.values[0, 2:]) == (1.0, 2.0, 3.0)
        assert ds.times[0] == "t0"

    def test_header_only_gives_empty_dataset(self, tmp_path):
        path = write(
            tmp_path, "b.csv", "position_x,position_y,distance_a,distance_b,distance_c,time\n"
        )
        assert len(parse_beacon_csv(path)) == 0

    def test_zero_distance_kept_and_noted(self, tmp_path):
        path = write(
            tmp_path,
            "b.csv",
            "position_x,position_y,distance_a,distance_b,distance_c,time\n"
            "122,180,1.533,1.174,0,2017 12:20:35.018\n",
        )
        ds = parse_beacon_csv(path)
        assert ds.values[0, 4] == 0.0
        assert any("zero distance" in note for note in ds.ingest_notes)

    def test_missing_column_names_it(self, tmp_path):
        path = write(tmp_path, "b.csv", "position_x,position_y,distance_a,distance_b,time\n")
        with pytest.raises(SchemaError, match="distance_c"):
            parse_beacon_csv(path)

    def test_non_numeric_cell_reports_row(self, tmp_path):
        path = write(
            tmp_path,
            "b.csv",
            "position_x,position_y,distance_a,distance_b,distance_c,time\n"
            "1,2,0.5,0.6,0.7,t\n"
            "1,2,oops,0.6,0.7,t\n",
        )
        with pytest.raises(ParseError, match="row 3"):
            parse_beacon_csv(path)

    def test_negative_distance_rejected(self, tmp_path):
        path = write(
            tmp_path,
            "b.csv",
            "position_x,position_y,distance_a,distance_b,distance_c,time\n1,2,-0.5,0.6,0.7,t\n",
        )
        with pytest.raises(ValidationError, match="row 2"):
            parse_beacon_csv(path)


class TestParseRssiCsv:
    HEADER = "rssi_bedroom,rssi_kitchen,rssi_office,rssi_toilet,location\n"

    def test_single_visible_zone(self, tmp_path):
        path = write(tmp_path, "r.csv", self.HEADER + "-120,-70,-120,-120,kitchen\n")
        ds = parse_rssi_csv(path)
        assert ZONES[ds.zones[0]] == "kitchen"
        assert dict(zip(ZONES, ds.values[0])) == {
            "bedroom": -120, "kitchen": -70, "office": -120, "toilet": -120
        }

    def test_all_out_of_range_is_accepted(self, tmp_path):
        path = write(tmp_path, "r.csv", self.HEADER + "-120,-120,-120,-120,bedroom\n")
        assert ZONES[parse_rssi_csv(path).zones[0]] == "bedroom"

    def test_reading_above_zero_rejected_with_row(self, tmp_path):
        path = write(tmp_path, "r.csv", self.HEADER + "-120,5,-120,-120,kitchen\n")
        with pytest.raises(ValidationError, match="row 2"):
            parse_rssi_csv(path)

    def test_reading_below_floor_rejected(self, tmp_path):
        path = write(tmp_path, "r.csv", self.HEADER + "-121,-70,-120,-120,kitchen\n")
        with pytest.raises(ValidationError):
            parse_rssi_csv(path)

    def test_unknown_zone_label(self, tmp_path):
        path = write(tmp_path, "r.csv", self.HEADER + "-120,-70,-120,-120,garage\n")
        with pytest.raises(ParseError, match="unknown zone"):
            parse_rssi_csv(path)

    def test_short_row_names_its_missing_label_once(self, tmp_path):
        path = write(tmp_path, "r.csv", self.HEADER + "-120,-70,-120,-120\n")
        with pytest.raises(ParseError) as info:
            parse_rssi_csv(path)
        assert str(info.value) == "row 2: missing value for column 'location'"


class TestParseImuCsv:
    def test_with_activity_tag(self, tmp_path):
        path = write(
            tmp_path,
            "i.csv",
            "acc_x,acc_y,acc_z,gyro_x,gyro_y,gyro_z,location,activity\n"
            "0.12,-0.98,0.05,1.1,-0.3,0.0,bedroom,sleeping\n",
        )
        ds = parse_imu_csv(path)
        acc_x, acc_y, acc_z, gyro_x, gyro_y, gyro_z = ds.values[0]
        assert ZONES[ds.zones[0]] == "bedroom"
        assert ds.activities[0] == "sleeping"
        assert acc_y == -0.98
        assert gyro_x == 1.1

    def test_without_activity_column(self, tmp_path):
        path = write(
            tmp_path,
            "i.csv",
            "acc_x,acc_y,acc_z,gyro_x,gyro_y,gyro_z,location\n0.1,0.2,0.3,0.4,0.5,0.6,office\n",
        )
        assert parse_imu_csv(path).activities[0] is None

    def test_blank_activity_cell_means_absent(self, tmp_path):
        path = write(
            tmp_path,
            "i.csv",
            "acc_x,acc_y,acc_z,gyro_x,gyro_y,gyro_z,location,activity\n"
            "0.1,0.2,0.3,0.4,0.5,0.6,office,\n",
        )
        assert parse_imu_csv(path).activities[0] is None

    def test_unknown_zone_label(self, tmp_path):
        path = write(
            tmp_path,
            "i.csv",
            "acc_x,acc_y,acc_z,gyro_x,gyro_y,gyro_z,location\n0.1,0.2,0.3,0.4,0.5,0.6,garage\n",
        )
        with pytest.raises(ParseError, match="unknown zone"):
            parse_imu_csv(path)

    def test_non_numeric_channel(self, tmp_path):
        path = write(
            tmp_path,
            "i.csv",
            "acc_x,acc_y,acc_z,gyro_x,gyro_y,gyro_z,location\nnan,0.2,0.3,0.4,0.5,0.6,office\n",
        )
        with pytest.raises(ParseError, match="non-finite"):
            parse_imu_csv(path)


def beacon_dataset(n):
    values = [(float(i), float(2 * i), 0.1 * i, 0.2 * i, 0.3 * i) for i in range(n)]
    times = tuple(f"t{i}" for i in range(n))
    return Dataset("beacon", values, times=times, source="test")


def beacon_rows(ds):
    """The rows of a beacon dataset as (x, y, a, b, c, time) tuples."""
    return [(*row, time) for row, time in zip(ds.values.tolist(), ds.times)]


class TestSplitData:
    def test_250_rows_at_70_percent(self):
        train, test = split_indices(250, SplitConfig(train_ratio=0.7, seed=1))
        assert (len(train), len(test)) == (175, 75)

    def test_ratio_one_keeps_everything_in_train(self):
        train, test = split_indices(10, SplitConfig(train_ratio=1.0, seed=1))
        assert (len(train), len(test)) == (10, 0)

    def test_same_config_gives_identical_split(self):
        cfg = SplitConfig(train_ratio=0.6, seed=9)
        first = split_indices(40, cfg)
        second = split_indices(40, cfg)
        assert first[0].tolist() == second[0].tolist()
        assert first[1].tolist() == second[1].tolist()

    def test_different_seeds_differ(self):
        a, _ = split_indices(60, SplitConfig(train_ratio=0.5, seed=1))
        b, _ = split_indices(60, SplitConfig(train_ratio=0.5, seed=2))
        assert a.tolist() != b.tolist()

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValidationError):
            split_indices(0, SplitConfig(train_ratio=0.5))

    @pytest.mark.parametrize("n_labels", [3, 10])
    def test_stratified_label_count_must_match_rows(self, n_labels):
        with pytest.raises(ValidationError, match=f"^{n_labels} labels for 5 rows$"):
            split_indices(5, SplitConfig(train_ratio=0.5, stratified=True), [0] * n_labels)

    def test_bad_ratio_rejected(self):
        with pytest.raises(ValidationError):
            SplitConfig(train_ratio=0.0)
        with pytest.raises(ValidationError):
            SplitConfig(train_ratio=1.2)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=120),
        ratio=st.floats(min_value=0.05, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_partition_identity(self, n, ratio, seed):
        train, test = split_indices(n, SplitConfig(train_ratio=ratio, seed=seed))
        assert len(train) == math.floor(ratio * n + 1e-9)
        assert len(train) + len(test) == n
        assert sorted(train.tolist() + test.tolist()) == list(range(n))

    @settings(max_examples=60, deadline=None)
    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=40), min_size=2, max_size=4),
        ratio=st.floats(min_value=0.1, max_value=0.95),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_stratified_class_counts_within_one(self, sizes, ratio, seed):
        labels = [z for z, size in zip(ZONES, sizes) for _ in range(size)]
        cfg = SplitConfig(train_ratio=ratio, seed=seed, stratified=True)
        train, test = split_indices(len(labels), cfg, labels)
        assert len(train) == math.floor(ratio * len(labels) + 1e-9)
        for zone, size in zip(ZONES, sizes):
            got = sum(1 for i in train if labels[i] == zone)
            assert abs(got - math.floor(ratio * size + 1e-9)) <= 1


finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
distance_floats = st.floats(min_value=0.0, max_value=1e4, allow_nan=False)
time_texts = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789 :.-", min_size=0, max_size=20
).map(str.strip)


class TestRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                finite_floats, finite_floats, distance_floats, distance_floats, distance_floats,
                time_texts,
            ),
            min_size=0,
            max_size=8,
        )
    )
    def test_beacon_roundtrip_bit_for_bit(self, rows, tmp_path_factory):
        ds = Dataset(
            "beacon",
            values=[row[:5] for row in rows],
            times=tuple(row[5] for row in rows),
            source="test",
        )
        path = tmp_path_factory.mktemp("rt") / "b.csv"
        write_csv(ds, path)
        back = parse_beacon_csv(path)
        assert len(back) == len(ds)
        for original, parsed in zip(beacon_rows(ds), beacon_rows(back)):
            assert parsed[0] == original[0]
            assert parsed[1] == original[1]
            assert parsed[2] == original[2]
            assert parsed[3] == original[3]
            assert parsed[4] == original[4]
            assert parsed[5] == original[5]

    def test_rssi_and_imu_roundtrip(self, tmp_path):
        rssi = synthetic_rssi_dataset(rows=25, seed=5)
        path = tmp_path / "r.csv"
        write_csv(rssi, path)
        back = parse_rssi_csv(path)
        assert back.values.tolist() == rssi.values.tolist()
        assert back.labels() == rssi.labels()

        from locbench.data import synthetic_imu_dataset

        imu = synthetic_imu_dataset(rows=25, seed=5)
        path = tmp_path / "i.csv"
        write_csv(imu, path)
        back = parse_imu_csv(path)
        assert back.values.tolist() == imu.values.tolist()
        assert back.activities == imu.activities


def trilaterate(beacons, distances_cm):
    """Closed-form circle intersection; independent of the generator."""
    p0, p1, p2 = (np.asarray(p, dtype=float) for p in beacons)
    r0, r1, r2 = distances_cm
    A = 2.0 * np.array([p1 - p0, p2 - p0])
    b = np.array(
        [
            r0**2 - r1**2 + p1 @ p1 - p0 @ p0,
            r0**2 - r2**2 + p2 @ p2 - p0 @ p0,
        ]
    )
    return np.linalg.solve(A, b)


class TestSyntheticWalk:
    def test_exact_distances_by_hand(self):
        beacons = ((0.0, 0.0), (400.0, 0.0), (0.0, 300.0))
        ds = generate_synthetic_walk(beacons, [(300.0, 400.0)], noise_sigma=0.0)
        distance_a, distance_b, distance_c = ds.values[0, 2:]
        assert distance_a == pytest.approx(5.0, abs=1e-12)
        assert distance_b == pytest.approx(math.sqrt(170000.0) / 100.0, abs=1e-12)
        assert distance_c == pytest.approx(math.sqrt(100000.0) / 100.0, abs=1e-12)

    def test_waypoint_at_beacon_has_zero_distance(self):
        beacons = ((0.0, 0.0), (400.0, 0.0), (0.0, 300.0))
        ds = generate_synthetic_walk(beacons, [(0.0, 0.0)], noise_sigma=0.0)
        distance_a, distance_b, distance_c = ds.values[0, 2:]
        assert distance_a == 0.0
        assert distance_b == 4.0
        assert distance_c == 3.0

    def test_collinear_beacons_rejected(self):
        with pytest.raises(ValidationError, match="collinear"):
            generate_synthetic_walk(((0, 0), (1, 1), (2, 2)), [(5.0, 5.0)])

    def test_same_seed_identical_noise(self):
        beacons = ((0.0, 0.0), (400.0, 0.0), (0.0, 300.0))
        wps = [(10.0 * i, 7.0 * i) for i in range(20)]
        a = generate_synthetic_walk(beacons, wps, noise_sigma=0.3, seed=11)
        b = generate_synthetic_walk(beacons, wps, noise_sigma=0.3, seed=11)
        assert beacon_rows(a) == beacon_rows(b)
        c = generate_synthetic_walk(beacons, wps, noise_sigma=0.3, seed=12)
        assert beacon_rows(a) != beacon_rows(c)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValidationError):
            generate_synthetic_walk(((0, 0), (1, 0), (0, 1)), [(0.5, 0.5)], noise_sigma=-1.0)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_non_finite_sigma_rejected(self, sigma):
        with pytest.raises(ValidationError, match="noise_sigma"):
            generate_synthetic_walk(((0, 0), (1, 0), (0, 1)), [(0.5, 0.5)], noise_sigma=sigma)

    def test_zero_noise_walk_is_recoverable_by_trilateration(self):
        ds = synthetic_walk_dataset(rows=50, noise_sigma=0.0, seed=4)
        for position_x, position_y, distance_a, distance_b, distance_c in ds.values:
            recovered = trilaterate(
                DEFAULT_BEACONS,
                (100.0 * distance_a, 100.0 * distance_b, 100.0 * distance_c),
            )
            assert abs(recovered[0] - position_x) < 1e-9
            assert abs(recovered[1] - position_y) < 1e-9

    def test_default_walk_shape(self):
        ds = synthetic_walk_dataset(rows=250, noise_sigma=0.05, seed=42)
        assert len(ds) == 250
        assert ds.schema_tag == "beacon"
        assert all(distance_a >= 0 for distance_a in ds.values[:, 2])


class TestRecordValidation:
    def test_dataset_rejects_unknown_schema(self):
        with pytest.raises(ValidationError):
            Dataset("sonar", values=())

    def test_labels_refused_on_beacon_data(self):
        with pytest.raises(ValidationError):
            beacon_dataset(3).labels()


class TestParseDispatch:
    def test_routes_by_schema_tag(self, tmp_path):
        from locbench.data import parse_csv

        ds = beacon_dataset(4)
        path = tmp_path / "b.csv"
        write_csv(ds, path)
        assert len(parse_csv(path, "beacon")) == 4
        with pytest.raises(ValidationError, match="unknown schema"):
            parse_csv(path, "sonar")
