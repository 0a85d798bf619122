"""Reference row parsers for the differential parse test.

These are the per-row CSV parsers that ``locbench.data`` used before it
parsed by column, kept here so the columnar parse can be checked against
them.  Each walks the rows in file order and raises on the first faulty
cell; on success it returns the parsed table as plain Python values:
``values`` (one list of floats per row, schema column order), ``zones``,
``times``, ``activities`` and ``notes``.  A field the schema lacks is an
empty list.
"""

from __future__ import annotations

import csv
import math
import re

from locbench.data import ParseError, SchemaError, ValidationError, ZONES

RSSI_OUT_OF_RANGE = -120.0
BEACON_COLUMNS = ("position_x", "position_y", "distance_a", "distance_b", "distance_c", "time")
RSSI_COLUMNS = ("rssi_bedroom", "rssi_kitchen", "rssi_office", "rssi_toilet", "location")
IMU_COLUMNS = ("acc_x", "acc_y", "acc_z", "gyro_x", "gyro_y", "gyro_z", "location")


def parse_zone(text):
    zone = text.strip().lower()
    if zone not in ZONES:
        raise ParseError(f"unknown zone {text!r} (expected one of {', '.join(ZONES)})")
    return zone


def _normalize_column(name):
    return re.sub(r"[^a-z0-9]+", "_", name.strip().lower()).strip("_")


def _read_rows(path):
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
            rows = [(line_no, rec) for line_no, rec in enumerate(reader, start=2) if rec]
        except StopIteration:
            raise SchemaError(f"{path}: file is empty, expected a header row") from None
    columns = {}
    for idx, name in enumerate(header):
        norm = _normalize_column(name)
        if norm and norm not in columns:
            columns[norm] = idx
    return columns, rows


def _require_columns(columns, required, path):
    missing = [name for name in required if name not in columns]
    if missing:
        raise SchemaError(f"{path}: missing required column(s): {', '.join(missing)}")


def _cell(record, columns, name, row):
    idx = columns[name]
    if idx >= len(record):
        raise ParseError(f"row {row}: missing value for column {name!r}")
    return record[idx]


def _float_cell(record, columns, name, row):
    text = _cell(record, columns, name, row)
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"row {row}: non-numeric value {text!r} in column {name!r}") from None
    if not math.isfinite(value):
        raise ParseError(f"row {row}: non-finite value {text!r} in column {name!r}")
    return value


def _table(values, zones=(), times=(), activities=(), notes=()):
    return {
        "values": values,
        "zones": list(zones),
        "times": list(times),
        "activities": list(activities),
        "notes": tuple(notes),
    }


def parse_beacon_csv(path):
    columns, records = _read_rows(path)
    _require_columns(columns, BEACON_COLUMNS, path)
    values, times = [], []
    zero_distance_rows = 0
    for line_no, record in records:
        row = [_float_cell(record, columns, name, line_no) for name in BEACON_COLUMNS[:5]]
        times.append(_cell(record, columns, "time", line_no))
        for name, value in zip(BEACON_COLUMNS[2:5], row[2:]):
            if value < 0:
                raise ValidationError(f"row {line_no}: negative distance in column {name!r}")
        if 0.0 in row[2:]:
            zero_distance_rows += 1
        values.append(row)
    notes = ()
    if zero_distance_rows:
        notes = (f"{zero_distance_rows} row(s) contain a zero distance reading, kept verbatim",)
    return _table(values, times=times, notes=notes)


def parse_rssi_csv(path):
    columns, records = _read_rows(path)
    _require_columns(columns, RSSI_COLUMNS, path)
    values, zones = [], []
    for line_no, record in records:
        row = []
        for zone in ZONES:
            value = _float_cell(record, columns, f"rssi_{zone}", line_no)
            if not (RSSI_OUT_OF_RANGE <= value <= 0.0):
                raise ValidationError(
                    f"row {line_no}: reading {value} for zone {zone!r} outside "
                    f"[{RSSI_OUT_OF_RANGE:.0f}, 0]"
                )
            row.append(value)
        try:
            label = parse_zone(_cell(record, columns, "location", line_no))
        except ParseError as exc:
            raise ParseError(f"row {line_no}: {exc}") from None
        values.append(row)
        zones.append(ZONES.index(label))
    return _table(values, zones=zones)


def parse_imu_csv(path):
    columns, records = _read_rows(path)
    _require_columns(columns, IMU_COLUMNS, path)
    has_activity = "activity" in columns
    values, zones, activities = [], [], []
    for line_no, record in records:
        row = [_float_cell(record, columns, name, line_no) for name in IMU_COLUMNS[:6]]
        try:
            label = parse_zone(_cell(record, columns, "location", line_no))
        except ParseError as exc:
            raise ParseError(f"row {line_no}: {exc}") from None
        activity = None
        if has_activity:
            tag = _cell(record, columns, "activity", line_no).strip()
            activity = tag or None
        values.append(row)
        zones.append(ZONES.index(label))
        activities.append(activity)
    return _table(values, zones=zones, activities=activities)


PARSERS = {"beacon": parse_beacon_csv, "rssi": parse_rssi_csv, "imu": parse_imu_csv}
