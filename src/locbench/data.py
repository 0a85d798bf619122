"""Record types, CSV ingestion, deterministic splitting, and synthetic data.

Three observation shapes flow through the toolkit:

* ``RssiSample``   -- one scanner reading per zone plus the true zone label
* ``ImuSample``    -- six accelerometer/gyroscope channels plus the label
* ``BeaconDistanceSample`` -- distances to three fixed beacons (meters) plus
  the ground-truth position (centimeters) and an opaque timestamp

All records are frozen dataclasses and safe to share between threads.
CSV is the only ingestion format: comma-separated, dot decimal point,
header-driven with case-insensitive, order-free column matching.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

#: The four activity-based zones, in the fixed order used everywhere
#: (report columns, confidence vectors, tie-breaking).
ZONES: tuple[str, str, str, str] = ("bedroom", "kitchen", "office", "toilet")

#: Scanner reading written when the beacon is out of range of that scanner.
#: Compared with exact equality, no epsilon.
RSSI_OUT_OF_RANGE = -120.0

#: Nominal sampling rate of the accelerometer/gyroscope channels, in Hz.
#: Recorded as metadata only; no temporal arithmetic is performed.
IMU_SAMPLE_RATE_HZ = 20.0


class SchemaError(ValueError):
    """A required CSV column is missing from the header."""


class ParseError(ValueError):
    """A cell could not be parsed; the message names the offending row."""


class ValidationError(ValueError):
    """A parsed value violates a range or enumeration constraint."""


def parse_zone(text: str) -> str:
    """Normalize a zone label, rejecting anything outside the four zones."""
    zone = text.strip().lower()
    if zone not in ZONES:
        raise ParseError(f"unknown zone {text!r} (expected one of {', '.join(ZONES)})")
    return zone


@dataclass(frozen=True)
class RssiSample:
    """Scanner readings for all four zones plus the true zone label.

    ``readings`` maps zone name to a dBm-like value in [-120, 0];
    exactly -120 means that scanner did not see the beacon.
    """

    readings: Mapping[str, float]
    label: str

    def vector(self) -> np.ndarray:
        """Readings as a length-4 array in canonical zone order."""
        return np.array([self.readings[z] for z in ZONES], dtype=float)


@dataclass(frozen=True)
class ImuSample:
    """One accelerometer/gyroscope observation with its zone label.

    Channel units are taken as-is from the source (treated as unitless
    features). ``activity`` is an optional free-text tag such as
    "sleeping"; it is carried through reports but never used as a feature.
    """

    acc_x: float
    acc_y: float
    acc_z: float
    gyro_x: float
    gyro_y: float
    gyro_z: float
    label: str
    activity: str | None = None

    def channels(self) -> np.ndarray:
        """The six channels as an array (acc x/y/z then gyro x/y/z)."""
        return np.array(
            [self.acc_x, self.acc_y, self.acc_z, self.gyro_x, self.gyro_y, self.gyro_z],
            dtype=float,
        )


@dataclass(frozen=True)
class BeaconDistanceSample:
    """Distances to the three reference beacons plus the true position.

    Positions are centimeters (source resolution +/- 1 cm), distances are
    meters. A distance of exactly 0.0 is accepted and kept verbatim --
    the source data contains such rows and they are treated as real
    readings, not dropped. ``time`` is opaque text preserved verbatim.
    """

    position_x: float
    position_y: float
    distance_a: float
    distance_b: float
    distance_c: float
    time: str = ""

    def distances(self) -> np.ndarray:
        return np.array([self.distance_a, self.distance_b, self.distance_c], dtype=float)


@dataclass(frozen=True)
class Dataset:
    """An ordered, homogeneous sequence of one record kind.

    ``schema_tag`` is one of "rssi", "imu", "beacon".  Row order is
    preserved from the source.  ``ingest_notes`` carries non-fatal
    observations made while parsing (e.g. zero-distance readings).
    """

    rows: tuple
    schema_tag: str
    source: str = "synthetic"
    ingest_notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.schema_tag not in ("rssi", "imu", "beacon"):
            raise ValidationError(f"unknown schema tag {self.schema_tag!r}")

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator:
        return iter(self.rows)

    def labels(self) -> list[str]:
        """Zone labels for rssi/imu datasets."""
        if self.schema_tag == "beacon":
            raise ValidationError("beacon datasets carry coordinates, not zone labels")
        return [row.label for row in self.rows]


@dataclass(frozen=True)
class SplitConfig:
    """Deterministic train/test split parameters.

    The train partition receives floor(train_ratio * n) rows; the shuffle
    is driven solely by ``seed``.  Stratified mode preserves per-class
    proportions within one row.
    """

    train_ratio: float
    seed: int = 42
    stratified: bool = False

    def __post_init__(self) -> None:
        if not (0.0 < self.train_ratio <= 1.0):
            raise ValidationError(f"train_ratio must be in (0, 1], got {self.train_ratio}")
        if self.seed < 0:
            raise ValidationError("seed must be a non-negative integer")


# --------------------------------------------------------------------------
# CSV parsing
# --------------------------------------------------------------------------

BEACON_COLUMNS = ("position_x", "position_y", "distance_a", "distance_b", "distance_c", "time")
RSSI_COLUMNS = ("rssi_bedroom", "rssi_kitchen", "rssi_office", "rssi_toilet", "location")
IMU_COLUMNS = ("acc_x", "acc_y", "acc_z", "gyro_x", "gyro_y", "gyro_z", "location")
IMU_OPTIONAL_COLUMNS = ("activity",)


def _normalize_column(name: str) -> str:
    return re.sub(r"[^a-z0-9]+", "_", name.strip().lower()).strip("_")


def _read_rows(path) -> tuple[dict[str, int], list[tuple[int, list[str]]]]:
    """Read a CSV file into (normalized header -> index, numbered data rows).

    Row numbers are physical 1-based line positions (the header is row 1),
    so error messages can be matched against the file directly.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
            rows = [(line_no, rec) for line_no, rec in enumerate(reader, start=2) if rec]
        except StopIteration:
            raise SchemaError(f"{path}: file is empty, expected a header row") from None
        except UnicodeDecodeError:
            raise ParseError(f"{path}: file is not UTF-8 text") from None
    columns: dict[str, int] = {}
    for idx, name in enumerate(header):
        norm = _normalize_column(name)
        if norm and norm not in columns:
            columns[norm] = idx
    return columns, rows


def _require_columns(columns: Mapping[str, int], required: Iterable[str], path) -> None:
    missing = [name for name in required if name not in columns]
    if missing:
        raise SchemaError(f"{path}: missing required column(s): {', '.join(missing)}")


def _cell(record: list[str], columns: Mapping[str, int], name: str, row: int):
    idx = columns[name]
    if idx >= len(record):
        raise ParseError(f"row {row}: missing value for column {name!r}")
    return record[idx]


def _float_cell(record: list[str], columns: Mapping[str, int], name: str, row: int) -> float:
    text = _cell(record, columns, name, row)
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"row {row}: non-numeric value {text!r} in column {name!r}") from None
    if not math.isfinite(value):
        raise ParseError(f"row {row}: non-finite value {text!r} in column {name!r}")
    return value


def parse_beacon_csv(path) -> Dataset:
    """Load a beacon-distance CSV (positions in cm, distances in meters).

    Units are taken as-is.  Zero distances are kept and counted in the
    dataset's ingest notes.
    """
    columns, records = _read_rows(path)
    _require_columns(columns, BEACON_COLUMNS, path)
    rows = []
    zero_distance_rows = 0
    for line_no, record in records:
        sample = BeaconDistanceSample(
            position_x=_float_cell(record, columns, "position_x", line_no),
            position_y=_float_cell(record, columns, "position_y", line_no),
            distance_a=_float_cell(record, columns, "distance_a", line_no),
            distance_b=_float_cell(record, columns, "distance_b", line_no),
            distance_c=_float_cell(record, columns, "distance_c", line_no),
            time=_cell(record, columns, "time", line_no),
        )
        for name in ("distance_a", "distance_b", "distance_c"):
            if getattr(sample, name) < 0:
                raise ValidationError(f"row {line_no}: negative distance in column {name!r}")
        if 0.0 in (sample.distance_a, sample.distance_b, sample.distance_c):
            zero_distance_rows += 1
        rows.append(sample)
    notes = ()
    if zero_distance_rows:
        notes = (f"{zero_distance_rows} row(s) contain a zero distance reading, kept verbatim",)
    return Dataset(rows=tuple(rows), schema_tag="beacon", source=str(path), ingest_notes=notes)


def parse_rssi_csv(path) -> Dataset:
    """Load a scanner-readings CSV: one column per zone plus the label."""
    columns, records = _read_rows(path)
    _require_columns(columns, RSSI_COLUMNS, path)
    rows = []
    for line_no, record in records:
        readings = {}
        for zone in ZONES:
            value = _float_cell(record, columns, f"rssi_{zone}", line_no)
            if not (RSSI_OUT_OF_RANGE <= value <= 0.0):
                raise ValidationError(
                    f"row {line_no}: reading {value} for zone {zone!r} outside "
                    f"[{RSSI_OUT_OF_RANGE:.0f}, 0]"
                )
            readings[zone] = value
        try:
            label = parse_zone(_cell(record, columns, "location", line_no))
        except ParseError as exc:
            raise ParseError(f"row {line_no}: {exc}") from None
        rows.append(RssiSample(readings=readings, label=label))
    return Dataset(rows=tuple(rows), schema_tag="rssi", source=str(path))


def parse_imu_csv(path) -> Dataset:
    """Load an accelerometer/gyroscope CSV; the activity column is optional."""
    columns, records = _read_rows(path)
    _require_columns(columns, IMU_COLUMNS, path)
    has_activity = "activity" in columns
    rows = []
    for line_no, record in records:
        channels = {
            name: _float_cell(record, columns, name, line_no)
            for name in ("acc_x", "acc_y", "acc_z", "gyro_x", "gyro_y", "gyro_z")
        }
        try:
            label = parse_zone(_cell(record, columns, "location", line_no))
        except ParseError as exc:
            raise ParseError(f"row {line_no}: {exc}") from None
        activity = None
        if has_activity:
            tag = _cell(record, columns, "activity", line_no).strip()
            activity = tag or None
        rows.append(ImuSample(label=label, activity=activity, **channels))
    return Dataset(rows=tuple(rows), schema_tag="imu", source=str(path))


# --------------------------------------------------------------------------
# CSV writing (round-trips bit-for-bit through repr for finite floats)
# --------------------------------------------------------------------------


def _fmt(value: float) -> str:
    return repr(float(value))


def write_beacon_csv(dataset: Dataset, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(BEACON_COLUMNS)
        for row in dataset.rows:
            writer.writerow(
                [
                    _fmt(row.position_x),
                    _fmt(row.position_y),
                    _fmt(row.distance_a),
                    _fmt(row.distance_b),
                    _fmt(row.distance_c),
                    row.time,
                ]
            )


def write_rssi_csv(dataset: Dataset, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(RSSI_COLUMNS)
        for row in dataset.rows:
            writer.writerow([_fmt(row.readings[z]) for z in ZONES] + [row.label])


def write_imu_csv(dataset: Dataset, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(IMU_COLUMNS + IMU_OPTIONAL_COLUMNS)
        for row in dataset.rows:
            writer.writerow(
                [_fmt(c) for c in row.channels()] + [row.label, row.activity or ""]
            )


def write_csv(dataset: Dataset, path) -> None:
    """Write a dataset back to CSV in its canonical schema."""
    writer = {
        "beacon": write_beacon_csv,
        "rssi": write_rssi_csv,
        "imu": write_imu_csv,
    }[dataset.schema_tag]
    writer(dataset, path)


def parse_csv(path, schema_tag: str) -> Dataset:
    """Parse a CSV file according to one of the three schemas."""
    parser = {
        "beacon": parse_beacon_csv,
        "rssi": parse_rssi_csv,
        "imu": parse_imu_csv,
    }.get(schema_tag)
    if parser is None:
        raise ValidationError(f"unknown schema tag {schema_tag!r}")
    return parser(path)


# --------------------------------------------------------------------------
# Splitting
# --------------------------------------------------------------------------

# Absorbs binary representation error in decimal ratios: 0.7 * 250 evaluates
# to 174.999... in float64 but must floor to 175.
_RATIO_EPS = 1e-9


def _train_count(ratio: float, n: int) -> int:
    return int(math.floor(ratio * n + _RATIO_EPS))


def split_indices(
    n: int, config: SplitConfig, labels: Sequence[str] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Compute (train_idx, test_idx) for a seeded shuffle split.

    Both index arrays are sorted ascending, disjoint, and together cover
    0..n-1.  ``labels`` is required when ``config.stratified`` is set; the
    per-class train count then stays within one row of
    floor(train_ratio * class_size) while the total is exactly
    floor(train_ratio * n).
    """
    if n == 0:
        raise ValidationError("cannot split an empty dataset")
    if config.stratified and labels is None:
        raise ValidationError("stratified split requires labels")
    n_train = _train_count(config.train_ratio, n)
    rng = np.random.default_rng(config.seed)

    if config.stratified:
        by_class: dict[str, list[int]] = {}
        for idx, label in enumerate(labels):
            by_class.setdefault(label, []).append(idx)
        classes = sorted(by_class)
        take = {c: _train_count(config.train_ratio, len(by_class[c])) for c in classes}
        # Per-class floors undershoot the overall floor by at most
        # len(classes) - 1 rows; top up the largest remainders (or, in
        # degenerate rounding cases, trim the smallest) until exact.
        remainder = lambda c: config.train_ratio * len(by_class[c]) - take[c]
        while sum(take.values()) < n_train:
            c = min((c for c in classes if take[c] < len(by_class[c])),
                    key=lambda c: (-remainder(c), c))
            take[c] += 1
        while sum(take.values()) > n_train:
            c = min((c for c in classes if take[c] > 0), key=lambda c: (remainder(c), c))
            take[c] -= 1
        chosen: list[int] = []
        for c in classes:
            members = np.array(by_class[c])
            rng.shuffle(members)
            chosen.extend(members[: take[c]].tolist())
        train_idx = np.sort(np.array(chosen, dtype=int))
    else:
        perm = rng.permutation(n)
        train_idx = np.sort(perm[:n_train])

    mask = np.zeros(n, dtype=bool)
    mask[train_idx] = True
    return train_idx, np.nonzero(~mask)[0]


def split_data(dataset: Dataset, config: SplitConfig) -> tuple[Dataset, Dataset]:
    """Split a dataset into (train, test) with a seeded shuffle.

    The same (dataset, config) pair always yields the same split.  Rows
    within each side keep their source order.  Stratified mode requires a
    labeled (rssi/imu) dataset.
    """
    labels = dataset.labels() if config.stratified else None
    train_idx, test_idx = split_indices(len(dataset.rows), config, labels)
    make = lambda idx: Dataset(
        rows=tuple(dataset.rows[i] for i in idx),
        schema_tag=dataset.schema_tag,
        source=dataset.source,
    )
    return make(train_idx), make(test_idx)


# --------------------------------------------------------------------------
# Synthetic generators
# --------------------------------------------------------------------------

#: Default beacon layout for synthetic walks, in centimeters.  Beacon A sits
#: just west of the walk area on its center line: it is the beacon nearest
#: the path centroid and the most informative about the X coordinate.
#: B is due north of the centroid (informative about Y); C is off the
#: southeast corner.  Close-in beacons keep the distance fields curved, so
#: the regression problem is genuinely nonlinear.
DEFAULT_BEACONS = ((80.0, 180.0), (200.0, 330.0), (380.0, 40.0))

#: Walk area for synthetic datasets: x in [50, 350], y in [80, 280] cm.
DEFAULT_WALK_AREA = ((50.0, 80.0), (350.0, 280.0))


def generate_synthetic_walk(
    beacons: Sequence[Sequence[float]],
    waypoints: Sequence[Sequence[float]],
    noise_sigma: float = 0.0,
    seed: int = 42,
) -> Dataset:
    """Generate beacon-distance samples along a known path.

    ``beacons`` are three non-collinear planar points in centimeters;
    ``waypoints`` are ground-truth (x, y) positions in centimeters.  Each
    waypoint produces one sample whose distances are the exact Euclidean
    distances converted to meters plus Gaussian noise of ``noise_sigma``
    meters (clipped at zero: distances are physical).  Fully reproducible
    for a given seed.
    """
    b = np.asarray(beacons, dtype=float)
    if b.shape != (3, 2):
        raise ValidationError(f"expected 3 planar beacons, got shape {b.shape}")
    cross = (b[1] - b[0])[0] * (b[2] - b[0])[1] - (b[1] - b[0])[1] * (b[2] - b[0])[0]
    if abs(cross) < 1e-6:
        raise ValidationError("beacons are collinear; trilateration geometry is degenerate")
    if not (np.isfinite(noise_sigma) and noise_sigma >= 0):
        raise ValidationError(f"noise_sigma must be finite and >= 0, got {noise_sigma}")
    w = np.asarray(waypoints, dtype=float)
    if w.ndim != 2 or w.shape[1] != 2:
        raise ValidationError(f"waypoints must be (n, 2), got shape {w.shape}")

    dist_m = np.linalg.norm(w[:, None, :] - b[None, :, :], axis=2) / 100.0
    if noise_sigma > 0:
        rng = np.random.default_rng(seed)
        dist_m = dist_m + rng.normal(0.0, noise_sigma, size=dist_m.shape)
        dist_m = np.maximum(dist_m, 0.0)

    rows = tuple(
        BeaconDistanceSample(
            position_x=float(w[i, 0]),
            position_y=float(w[i, 1]),
            distance_a=float(dist_m[i, 0]),
            distance_b=float(dist_m[i, 1]),
            distance_c=float(dist_m[i, 2]),
            time=f"walk {i:05d}",
        )
        for i in range(len(w))
    )
    return Dataset(rows=rows, schema_tag="beacon", source="synthetic")


def synthetic_walk_dataset(rows: int = 250, noise_sigma: float = 0.05, seed: int = 42) -> Dataset:
    """A random walk over the default desk-scale area with default beacons."""
    rng = np.random.default_rng([seed, 1])
    low, high = DEFAULT_WALK_AREA
    waypoints = rng.uniform(low, high, size=(rows, 2))
    return generate_synthetic_walk(DEFAULT_BEACONS, waypoints, noise_sigma=noise_sigma, seed=seed)


#: Free-text activity tags attached to synthetic zone data, one per zone.
_ZONE_ACTIVITIES = {
    "bedroom": "sleeping",
    "kitchen": "cooking",
    "office": "working",
    "toilet": "defecating",
}


def synthetic_rssi_dataset(
    rows: int = 400,
    seed: int = 42,
    visible_range: tuple[float, float] = (-90.0, -40.0),
) -> Dataset:
    """Scanner readings where exactly one zone sees the beacon per row.

    The visible zone's scanner reads uniformly inside ``visible_range``;
    all other scanners report the out-of-range value.  The label is the
    visible zone, so the data is perfectly separable by construction.
    """
    rng = np.random.default_rng(seed)
    lo, hi = visible_range
    if not (RSSI_OUT_OF_RANGE < lo <= hi <= 0.0):
        raise ValidationError("visible_range must sit inside (-120, 0]")
    samples = []
    for _ in range(rows):
        zone = ZONES[int(rng.integers(0, len(ZONES)))]
        readings = dict.fromkeys(ZONES, RSSI_OUT_OF_RANGE)
        readings[zone] = float(rng.uniform(lo, hi))
        samples.append(RssiSample(readings=readings, label=zone))
    return Dataset(rows=tuple(samples), schema_tag="rssi", source="synthetic")


# Per-zone mean signatures for the six channels (acc x/y/z, gyro x/y/z).
# Spaced so a forest separates zones well but not perfectly under noise.
_IMU_SIGNATURES = {
    "bedroom": (0.0, 0.0, 1.0, 0.1, 0.0, 0.0),
    "kitchen": (1.2, 0.4, 0.8, 1.5, 0.8, 0.6),
    "office": (0.2, 1.1, 0.9, 0.3, 1.2, 0.1),
    "toilet": (0.8, 0.9, 0.2, 0.7, 0.2, 1.3),
}


def synthetic_imu_dataset(rows: int = 400, seed: int = 42, noise: float = 0.45) -> Dataset:
    """Accelerometer/gyroscope rows with zone-specific channel signatures.

    Rows come in runs of 8-25 consecutive samples per zone, mimicking a
    person dwelling in one zone at the nominal sampling rate, so windowed
    feature extraction has complete windows to work with.
    """
    rng = np.random.default_rng(seed)
    samples: list[ImuSample] = []
    while len(samples) < rows:
        zone = ZONES[int(rng.integers(0, len(ZONES)))]
        dwell = int(rng.integers(8, 26))
        mean = np.array(_IMU_SIGNATURES[zone])
        for _ in range(min(dwell, rows - len(samples))):
            values = mean + rng.normal(0.0, noise, size=6)
            samples.append(
                ImuSample(
                    acc_x=float(values[0]),
                    acc_y=float(values[1]),
                    acc_z=float(values[2]),
                    gyro_x=float(values[3]),
                    gyro_y=float(values[4]),
                    gyro_z=float(values[5]),
                    label=zone,
                    activity=_ZONE_ACTIVITIES[zone],
                )
            )
    return Dataset(rows=tuple(samples), schema_tag="imu", source="synthetic")
