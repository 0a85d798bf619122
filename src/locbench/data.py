"""Sensor tables: the schema table, columnar datasets, CSV I/O, splits, synthetic data.

Three tables flow through the toolkit, one per tag in ``SCHEMAS``:

* ``rssi``   -- one scanner reading per zone plus the true zone label
* ``imu``    -- six accelerometer/gyroscope channels, the label and an
  optional free-text activity tag
* ``beacon`` -- the ground-truth position (centimeters), distances to three
  fixed beacons (meters) and an opaque timestamp

A ``Dataset`` holds one table by column: a read-only float matrix of the
numeric columns in schema order, the zone labels as indices into
``ZONES`` and the text columns as tuples.  Datasets are frozen and safe to
share between threads.  CSV is the only ingestion format: comma-separated,
dot decimal point, header-driven with case-insensitive, order-free column
matching.
"""

from __future__ import annotations

import csv
import io
import math
import re
import warnings
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Mapping, NoReturn, Sequence

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


# --------------------------------------------------------------------------
# The schema table
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TextColumn:
    """A text column: the ``Dataset`` attribute it fills and how a cell maps.

    ``read`` turns one cell into the stored value and may raise
    ``ParseError``; a ``read`` of ``str`` keeps cells verbatim.  ``write``
    turns a stored value back into a cell.
    """

    name: str
    attr: str
    read: Callable[[str], object]
    write: Callable[[object], str]


@dataclass(frozen=True)
class Schema:
    """The columns of one sensor table and the range rule of its readings.

    ``numeric`` columns fill the dataset's float matrix in this order.
    ``text`` columns are required; an ``optional`` column may be absent,
    and then every one of its cells reads as empty.  The range rule holds
    each column of ``ranged`` to [``low``, ``high``]; ``ranged`` maps the
    column to the name ``range_error`` gives it.  ``zero_note``, if set,
    is the ingest note counting rows with a ranged reading of exactly 0.
    """

    numeric: tuple[str, ...]
    text: tuple[TextColumn, ...]
    optional: tuple[TextColumn, ...] = ()
    ranged: Mapping[str, str] = field(default_factory=dict)
    low: float = -math.inf
    high: float = math.inf
    range_error: str = ""
    zero_note: str | None = None

    @property
    def required(self) -> tuple[str, ...]:
        return self.numeric + tuple(col.name for col in self.text)


_TIME = TextColumn("time", "times", read=str, write=str)  # opaque, kept verbatim
_LOCATION = TextColumn(
    "location", "zones", read=lambda cell: ZONES.index(parse_zone(cell)), write=ZONES.__getitem__
)
_ACTIVITY = TextColumn(
    "activity", "activities", read=lambda cell: cell.strip() or None, write=lambda tag: tag or ""
)

_DISTANCES = ("distance_a", "distance_b", "distance_c")

#: Every sensor table, by schema tag.  Positions are centimeters (source
#: resolution +/- 1 cm) and distances meters; a distance of exactly 0.0 is
#: a real reading, kept and counted.  A scanner reading of exactly -120
#: means that scanner did not see the beacon.  Motion channels are
#: unitless features; the activity tag is never used as a feature.
SCHEMAS: dict[str, Schema] = {
    "beacon": Schema(
        numeric=("position_x", "position_y") + _DISTANCES,
        text=(_TIME,),
        ranged={name: name for name in _DISTANCES},
        low=0.0,
        range_error="negative distance in column {name!r}",
        zero_note="{} row(s) contain a zero distance reading, kept verbatim",
    ),
    "rssi": Schema(
        numeric=tuple(f"rssi_{z}" for z in ZONES),
        text=(_LOCATION,),
        ranged={f"rssi_{z}": z for z in ZONES},
        low=RSSI_OUT_OF_RANGE,
        high=0.0,
        range_error="reading {value} for zone {name!r} outside [{low:.0f}, {high:.0f}]",
    ),
    "imu": Schema(
        numeric=("acc_x", "acc_y", "acc_z", "gyro_x", "gyro_y", "gyro_z"),
        text=(_LOCATION,),
        optional=(_ACTIVITY,),
    ),
}


def _schema(schema_tag: str) -> Schema:
    schema = SCHEMAS.get(schema_tag)
    if schema is None:
        raise ValidationError(f"unknown schema tag {schema_tag!r}")
    return schema


@dataclass(frozen=True, eq=False)
class Dataset:
    """One sensor table, stored by column.

    ``values`` is a read-only float64 (rows x numeric columns) matrix in
    the schema's column order.  ``zones`` holds the zone labels as indices
    into ``ZONES`` (rssi, imu), ``times`` the timestamps (beacon) and
    ``activities`` the activity tags, None where blank (imu); a field the
    schema lacks stays empty, and empty imu ``activities`` mean no tags.
    Row order is preserved from the source.  ``ingest_notes`` carries
    non-fatal observations made while parsing (e.g. zero-distance
    readings).  Datasets compare by identity; compare their fields.
    """

    schema_tag: str
    values: np.ndarray
    zones: np.ndarray | Sequence[int] = ()
    times: tuple[str, ...] = ()
    activities: tuple[str | None, ...] = ()
    source: str = "synthetic"
    ingest_notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        schema = _schema(self.schema_tag)
        values = np.array(self.values, dtype=float)
        if values.size == 0:
            values = values.reshape(0, len(schema.numeric))
        if values.ndim != 2 or values.shape[1] != len(schema.numeric):
            raise ValidationError(
                f"{self.schema_tag} values must be (rows, {len(schema.numeric)}), "
                f"got shape {values.shape}"
            )
        values.setflags(write=False)
        zones = np.array(self.zones, dtype=np.intp).reshape(-1)
        if ((zones < 0) | (zones >= len(ZONES))).any():
            raise ValidationError(f"zone indices must lie in 0..{len(ZONES) - 1}")
        zones.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "zones", zones)
        object.__setattr__(self, "times", tuple(self.times))
        object.__setattr__(self, "activities", tuple(self.activities))
        for col in schema.optional:  # an absent optional column reads as empty cells
            if not getattr(self, col.attr):
                object.__setattr__(self, col.attr, (col.read(""),) * len(values))
        for col in schema.text + schema.optional:
            if len(getattr(self, col.attr)) != len(values):
                raise ValidationError(
                    f"{len(getattr(self, col.attr))} {col.attr} for {len(values)} rows"
                )

    def __len__(self) -> int:
        return len(self.values)

    def labels(self) -> list[str]:
        """Zone labels for rssi/imu datasets."""
        if self.schema_tag == "beacon":
            raise ValidationError("beacon datasets carry coordinates, not zone labels")
        return [ZONES[i] for i in self.zones]


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
# CSV parsing and writing
# --------------------------------------------------------------------------


def _normalize_column(name: str) -> str:
    return re.sub(r"[^a-z0-9]+", "_", name.strip().lower()).strip("_")


#: Bytes that select the cast: numpy's float reader strips them around a number; float() does not.
_CAST_BYTES = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _read_columns(data: bytes, skip: int, schema: Schema, columns: Mapping[str, int], cols):
    """numpy's C reader after the ``skip`` header lines: (values, cells), or None for the walker.

    Numbers are read as floats, or as text cast by ``float``'s rules if the file
    holds a ``_CAST_BYTES`` byte or the float read refused a cell ``float`` may
    take.  None: a refused cast, a bad row, a failed column check or a field over csv's limit.
    """
    # With its line end kept, a quoted line break joins the next line into the cell.
    lines = data.splitlines(keepends=True)
    usecols = [columns[name] for name in schema.numeric + tuple(col.name for col in cols)]

    def load(kind):
        dtype = [("values", kind, (len(schema.numeric),)), ("cells", object, (len(cols),))]
        table = np.loadtxt(
            lines, dtype, comments=None, delimiter=",", quotechar='"', skiprows=skip,
            usecols=usecols, ndmin=1, encoding="utf-8"
        )
        return table["values"].astype(float, copy=False), table["cells"]

    kinds = (object,) if any(map(data.__contains__, _CAST_BYTES)) else (float, object)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a file with no data rows
        for kind in kinds:
            try:
                values, cells = load(kind)
                break
            except ValueError as exc:
                if kind is object or not _castable(str(exc)):
                    return None
    # Only a quoted cell joins lines: then numpy returns fewer rows than non-blank lines.
    rows = lambda part: len(part) - sum(map(part.count, (b"\n", b"\r\n", b"\r")))
    joined = b'"' in data and len(values) < rows(lines) - rows(lines[:skip])
    if joined or max(map(len, lines)) > csv.field_size_limit():
        # A field may be over csv's limit, which numpy does not know: csv's reader must take it.
        try:
            if sum(map(bool, _records(data))) != len(values) + 1:
                return None
        except csv.Error:
            return None
    ranged = values[:, [schema.numeric.index(name) for name in schema.ranged]]
    if not np.isfinite(values).all() or ((ranged < schema.low) | (ranged > schema.high)).any():
        return None
    cells = cells.T.tolist()
    for j, col in enumerate(cols):
        if col.read is not str:  # a verbatim column needs no lookup
            try:
                lookup = {cell: col.read(cell) for cell in set(cells[j])}
            except ParseError:
                return None
            cells[j] = map(lookup.__getitem__, cells[j])
    return values, cells


def _castable(message: str) -> bool:
    """Whether the cell the float read refused may be a number ``float``, so the cast, reads."""
    # numpy names the cell by its repr, cut at 100 characters: one cut short or escaped may be.
    refused = re.match(r"could not convert string '([^'\\]*)' to float64 at ", message)
    if refused is None:
        return not message.startswith("invalid column index")  # a short row refuses it too
    try:
        float(refused[1])
    except ValueError:
        return False
    return True


def _records(data: bytes):
    """A ``csv.reader`` over the UTF-8 text of ``data``, decoded as it reads."""
    return csv.reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=""))


def _checked_rows(path, records, schema: Schema, columns: Mapping[str, int], cols) -> NoReturn:
    """Raise the first fault of the rows after the header, in file order; build nothing.

    ``records`` is the ``csv.reader`` that read the header; its line count
    names the line on which each record starts.  A walk without a fault
    means numpy's and csv's readers disagree on the file: that raises too.
    """
    checks = [(name, partial(_check_number, schema, name)) for name in schema.numeric]
    checks += [(col.name, col.read) for col in cols]
    start = records.line_num + 1
    try:
        for record in records:
            line_no, start = start, records.line_num + 1
            if not record:
                continue
            for name, check in checks:
                if columns[name] >= len(record):
                    raise ParseError(f"row {line_no}: missing value for column {name!r}")
                try:
                    check(record[columns[name]])
                except (ParseError, ValidationError) as exc:
                    raise type(exc)(f"row {line_no}: {exc}") from None
    except csv.Error as exc:  # named, as every fault, by the line its record starts on
        raise ParseError(f"{path}: row {start}: {exc}") from None
    raise ParseError(f"{path}: numpy's and csv's readers disagree on the file; no row has a fault")


def _check_number(schema: Schema, name: str, text: str) -> None:
    """Raise the fault of one numeric cell: non-numeric, non-finite, then out of range."""
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"non-numeric value {text!r} in column {name!r}") from None
    if not math.isfinite(value):
        raise ParseError(f"non-finite value {text!r} in column {name!r}")
    if name in schema.ranged and not (schema.low <= value <= schema.high):
        message = schema.range_error.format(
            value=value, name=schema.ranged[name], low=schema.low, high=schema.high
        )
        raise ValidationError(message)


def read_text(path) -> str:
    """A UTF-8 file's text, less a leading byte-order mark, read with universal newlines."""
    with open(path, encoding="utf-8-sig") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError:
            raise ParseError(f"{path}: file is not UTF-8 text") from None


def parse_csv(path, schema_tag: str) -> Dataset:
    """Parse a CSV file according to one of the schemas in ``SCHEMAS``.

    The file must be UTF-8.  numpy's C reader builds every table by column,
    quoted cells and a header across lines too, reads each number by
    ``float``'s rules and checks each column whole.  A file it refuses
    goes to the row walker, which only names the fault: the first faulty
    row in file order raises, whatever kind of fault (a csv syntax fault
    too) it holds.  Within a row the columns are checked in schema order
    (numeric, text, then the optional columns the header has); a numeric
    cell fails as missing, non-numeric, non-finite, then out of range, a
    text cell as missing, then as an unknown zone.  Blank lines are
    skipped.  A row is named by the file line on which its record starts.
    """
    schema = _schema(schema_tag)
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        raise ParseError(f"{path}: file is not UTF-8 text") from None
    records = _records(data)
    try:
        header = next(records)
    except StopIteration:
        raise SchemaError(f"{path}: file is empty, expected a header row") from None
    except csv.Error as exc:
        raise ParseError(f"{path}: row {records.line_num}: {exc}") from None
    names = enumerate(map(_normalize_column, header))
    columns = dict(reversed([(name, idx) for idx, name in names if name]))  # first one wins
    missing = [name for name in schema.required if name not in columns]
    if missing:
        raise SchemaError(f"{path}: missing required column(s): {', '.join(missing)}")
    cols = schema.text + tuple(col for col in schema.optional if col.name in columns)
    table = _read_columns(data, records.line_num, schema, columns, cols)
    values, cells = table or _checked_rows(path, records, schema, columns, cols)
    ranged = values[:, [schema.numeric.index(name) for name in schema.ranged]]
    zero_rows = int(np.count_nonzero((ranged == 0.0).any(axis=1)))
    notes = (schema.zero_note.format(zero_rows),) if schema.zero_note and zero_rows else ()
    texts = {col.attr: tuple(column) for col, column in zip(cols, cells)}
    return Dataset(schema_tag, values, source=str(path), ingest_notes=notes, **texts)


def parse_beacon_csv(path) -> Dataset:
    """Load a beacon-distance CSV (positions in cm, distances in meters)."""
    return parse_csv(path, "beacon")


def parse_rssi_csv(path) -> Dataset:
    """Load a scanner-readings CSV: one column per zone plus the label."""
    return parse_csv(path, "rssi")


def parse_imu_csv(path) -> Dataset:
    """Load an accelerometer/gyroscope CSV; the activity column is optional."""
    return parse_csv(path, "imu")


def write_csv(dataset: Dataset, path) -> None:
    """Write a dataset to CSV with its schema's columns, in schema order.

    Floats are written with ``repr``, so finite values round-trip bit for bit.
    """
    schema = SCHEMAS[dataset.schema_tag]
    text = schema.text + schema.optional
    cells = [map(repr, column) for column in dataset.values.T.tolist()]
    cells += [map(col.write, getattr(dataset, col.attr)) for col in text]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(schema.numeric + tuple(col.name for col in text))
        writer.writerows(zip(*cells))


# --------------------------------------------------------------------------
# Splitting
# --------------------------------------------------------------------------

# Absorbs binary representation error in decimal ratios: 0.7 * 250 evaluates
# to 174.999... in float64 but must floor to 175.
_RATIO_EPS = 1e-9


def _train_count(ratio: float, n: int) -> int:
    return int(math.floor(ratio * n + _RATIO_EPS))


def split_indices(
    n: int, config: SplitConfig, labels: np.ndarray | Sequence[str] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Compute (train_idx, test_idx) for a seeded shuffle split.

    Both index arrays are sorted ascending, disjoint, and together cover
    0..n-1.  ``labels`` (one per row: zone indices or names) is required
    when ``config.stratified`` is set; the per-class train count then
    stays within one row of floor(train_ratio * class_size) while the
    total is exactly floor(train_ratio * n).  Classes are taken in sorted
    order, and ``ZONES`` is sorted, so zone names and their indices give
    the same split.
    """
    if n == 0:
        raise ValidationError("cannot split an empty dataset")
    if config.stratified and labels is None:
        raise ValidationError("stratified split requires labels")
    if config.stratified and len(labels) != n:
        raise ValidationError(f"{len(labels)} labels for {n} rows")
    n_train = _train_count(config.train_ratio, n)
    rng = np.random.default_rng(config.seed)

    if config.stratified:
        # Classes in sorted order; each class's rows ascending.
        _, inverse, sizes = np.unique(labels, return_inverse=True, return_counts=True)
        members = np.split(np.argsort(inverse, kind="stable"), np.cumsum(sizes)[:-1])
        sizes = sizes.tolist()
        take = [_train_count(config.train_ratio, size) for size in sizes]
        classes = range(len(sizes))
        # Per-class floors undershoot the overall floor by at most
        # len(classes) - 1 rows; top up the largest remainders (or, in
        # degenerate rounding cases, trim the smallest) until exact.
        remainder = lambda c: config.train_ratio * sizes[c] - take[c]
        while sum(take) < n_train:
            c = min((c for c in classes if take[c] < sizes[c]), key=lambda c: (-remainder(c), c))
            take[c] += 1
        while sum(take) > n_train:
            c = min((c for c in classes if take[c] > 0), key=lambda c: (remainder(c), c))
            take[c] -= 1
        for rows in members:
            rng.shuffle(rows)
        train_idx = np.sort(np.concatenate([rows[:t] for rows, t in zip(members, take)]))
    else:
        perm = rng.permutation(n)
        train_idx = np.sort(perm[:n_train])

    mask = np.zeros(n, dtype=bool)
    mask[train_idx] = True
    return train_idx, np.nonzero(~mask)[0]


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

    times = tuple(f"walk {i:05d}" for i in range(len(w)))
    return Dataset("beacon", np.column_stack([w, dist_m]), times=times)


def synthetic_walk_dataset(rows: int = 250, noise_sigma: float = 0.05, seed: int = 42) -> Dataset:
    """A random walk over the default desk-scale area with default beacons."""
    rng = np.random.default_rng([seed, 1])
    low, high = DEFAULT_WALK_AREA
    waypoints = rng.uniform(low, high, size=(rows, 2))
    return generate_synthetic_walk(DEFAULT_BEACONS, waypoints, noise_sigma=noise_sigma, seed=seed)


#: Free-text activity tags attached to synthetic zone data, one per zone in ``ZONES`` order.
_ZONE_ACTIVITIES = ("sleeping", "cooking", "working", "defecating")


def synthetic_rssi_dataset(rows: int = 400, seed: int = 42) -> Dataset:
    """Scanner readings where exactly one zone sees the beacon per row.

    The visible zone's scanner reads uniformly inside [-90, -40) dBm;
    all other scanners report the out-of-range value.  The label is the
    visible zone, so the data is perfectly separable by construction.
    """
    rng = np.random.default_rng(seed)
    zones = np.empty(rows, dtype=np.intp)
    values = np.full((rows, len(ZONES)), RSSI_OUT_OF_RANGE)
    for i in range(rows):  # one zone draw, then one reading draw, per row
        zones[i] = rng.integers(0, len(ZONES))
        values[i, zones[i]] = rng.uniform(-90.0, -40.0)
    return Dataset("rssi", values, zones=zones)


# Per-zone mean signatures for the six channels (acc x/y/z, gyro x/y/z).
# Spaced so a forest separates zones well but not perfectly under noise.
_IMU_SIGNATURES = {
    "bedroom": (0.0, 0.0, 1.0, 0.1, 0.0, 0.0),
    "kitchen": (1.2, 0.4, 0.8, 1.5, 0.8, 0.6),
    "office": (0.2, 1.1, 0.9, 0.3, 1.2, 0.1),
    "toilet": (0.8, 0.9, 0.2, 0.7, 0.2, 1.3),
}


def synthetic_imu_dataset(rows: int = 400, seed: int = 42) -> Dataset:
    """Accelerometer/gyroscope rows with zone-specific channel signatures.

    Rows come in runs of 8-25 consecutive samples per zone, mimicking a
    person dwelling in one zone at the nominal sampling rate, so windowed
    feature extraction has complete windows to work with.  Each channel
    adds Gaussian noise of sigma 0.45 to its zone's signature.
    """
    rng = np.random.default_rng(seed)
    runs: list[np.ndarray] = []
    zones: list[int] = []
    while len(zones) < rows:
        zone = int(rng.integers(0, len(ZONES)))
        dwell = min(int(rng.integers(8, 26)), rows - len(zones))
        runs.append(rng.normal(0.0, 0.45, size=(dwell, 6)) + _IMU_SIGNATURES[ZONES[zone]])
        zones += [zone] * dwell
    values = np.concatenate(runs) if runs else np.empty((0, 6))
    activities = tuple(_ZONE_ACTIVITIES[z] for z in zones)
    return Dataset("imu", values, zones=zones, activities=activities)
