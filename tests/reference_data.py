"""Reference loops for the differential parse, split and window tests.

The per-row CSV parsers are the ones ``locbench.data`` used before it
parsed by column, kept here so the columnar parse can be checked against
them.  Each reads every record first, so a csv syntax fault anywhere
raises before any cell is checked, then walks the rows in file order and
raises on the first faulty cell.  A row is named by the file line on
which its record starts.  On success each returns the parsed table as
plain Python values: ``values`` (one list of floats per row, schema
column order), ``zones``, ``times``, ``activities`` and ``notes``.  A
field the schema lacks is an empty list.

``split_indices`` and ``imu_windows`` are the per-row loops that grouped
rows by class for the stratified split and cut motion windows before
both became array arithmetic.
"""

from __future__ import annotations

import csv
import math
import re

import numpy as np

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
    """The header's columns and the non-blank records, each with the line it starts on."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: file is empty, expected a header row") from None
        rows = []
        line_no = reader.line_num + 1
        try:
            for rec in reader:
                if rec:
                    rows.append((line_no, rec))
                line_no = reader.line_num + 1
        except csv.Error as exc:  # read before any row is checked, so it wins over them
            raise ParseError(f"{path}: row {line_no}: {exc}") from None
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


def split_indices(n, config, labels=None):
    """The seeded split, grouping the stratified classes row by row."""
    if n == 0:
        raise ValidationError("cannot split an empty dataset")
    if config.stratified and labels is None:
        raise ValidationError("stratified split requires labels")
    n_train = int(math.floor(config.train_ratio * n + 1e-9))
    rng = np.random.default_rng(config.seed)

    if config.stratified:
        by_class = {}
        for idx, label in enumerate(labels):
            by_class.setdefault(label, []).append(idx)
        classes = sorted(by_class)
        take = {
            c: int(math.floor(config.train_ratio * len(by_class[c]) + 1e-9)) for c in classes
        }
        remainder = lambda c: config.train_ratio * len(by_class[c]) - take[c]
        while sum(take.values()) < n_train:
            c = min((c for c in classes if take[c] < len(by_class[c])),
                    key=lambda c: (-remainder(c), c))
            take[c] += 1
        while sum(take.values()) > n_train:
            c = min((c for c in classes if take[c] > 0), key=lambda c: (remainder(c), c))
            take[c] -= 1
        chosen = []
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


def imu_windows(channels, labels, window):
    """(mean+std features, labels) of non-overlapping windows inside label runs."""
    if window is None or window == 1:
        return channels, labels
    feat_rows = []
    feat_labels = []
    run_start = 0
    for i in range(1, len(labels) + 1):
        if i == len(labels) or labels[i] != labels[run_start]:
            run = channels[run_start:i]
            for w0 in range(0, len(run) - window + 1, window):
                chunk = run[w0 : w0 + window]
                feat_rows.append(np.concatenate([chunk.mean(axis=0), chunk.std(axis=0)]))
                feat_labels.append(labels[run_start])
            run_start = i
    if not feat_rows:
        raise ValidationError(
            f"window={window} leaves no complete windows; dataset runs are too short"
        )
    return np.array(feat_rows), np.array(feat_labels)
