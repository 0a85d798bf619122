"""The columnar CSV parse against the reference row parsers.

Small files are drawn cell by cell from pools of valid and faulty text
(underscored and full-width digits, padded numbers, nan/inf spellings,
empty cells, short rows, blank lines, unknown and mixed-case zones,
readings outside [-120, 0], negative and zero distances) under a header
with shuffled, re-cased columns.  Both parsers must accept the same
files with equal tables, and reject the same files at the same row.
When the first faulty row has one fault the message must be identical
(except that the reference wrote ``row N: row N: missing value ...`` for
a short row without its zone cell); when its faults are all of one kind
the exception type must be; a row with several faults may name a
different one of them.
"""

import csv
import math
import re

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from locbench.data import SCHEMAS, ZONES, ParseError, SchemaError, ValidationError, parse_csv
from reference_data import PARSERS

POSITIONS = ["122", "-3.5", "1_0", " 2 ", "７", "0", "1e3"]
DISTANCES = ["0", "-0", "0.877", " 1.5 ", "1_0", "３", "2e-3"]
READINGS = ["-120", "-120.0", "-70", " -55.5 ", "0", "-0", "-1_0", "-９０"]
CHANNELS = ["0.12", "-0.98", "1_0", " 2 ", "５", "-0", "1e-3"]
LOCATIONS = ["bedroom", "Kitchen", " OFFICE ", "toilet"]
TEXTS = ["t0", "", "2017 12:20:22.583", " spaced ", "Cooking"]
FAULTY = [
    "nan", "inf", "-inf", "Infinity", "", "abc", "1e999", "-121", "0.5", "5", "-0.5",
    "-1", "garage", "Attic", "１２", "1__0",
]

#: Valid cells per column, by schema.
GOOD = {
    "beacon": {
        "position_x": POSITIONS,
        "position_y": POSITIONS,
        "distance_a": DISTANCES,
        "distance_b": DISTANCES,
        "distance_c": DISTANCES,
        "time": TEXTS,
    },
    "rssi": {**{f"rssi_{z}": READINGS for z in ZONES}, "location": LOCATIONS},
    "imu": {
        **{name: CHANNELS for name in SCHEMAS["imu"].numeric},
        "location": LOCATIONS,
        "activity": TEXTS,
    },
}


def row_faults(tag, header, record):
    """The exception type of each faulty cell of one row of the file."""
    schema = SCHEMAS[tag]
    faults = []
    for idx, name in enumerate(header):
        if name not in GOOD[tag]:
            continue
        if idx >= len(record):
            faults.append(ParseError)
            continue
        cell = record[idx]
        if name in schema.numeric:
            try:
                value = float(cell)
            except ValueError:
                faults.append(ParseError)
                continue
            if not math.isfinite(value):
                faults.append(ParseError)
            elif name in schema.ranged and not (schema.low <= value <= schema.high):
                faults.append(ValidationError)
        elif name == "location" and cell.strip().lower() not in ZONES:
            faults.append(ParseError)
    return faults


def one_in(n):
    return st.sampled_from([False] * (n - 1) + [True])


@st.composite
def csv_files(draw, tag):
    columns = list(GOOD[tag])
    if tag == "imu" and draw(st.booleans()):
        columns.remove("activity")
    if draw(one_in(10)):
        columns.remove(draw(st.sampled_from(columns)))  # a missing column
    header = draw(st.permutations(columns + ["extra"]))
    n_rows = draw(st.integers(0, 6))
    faulty = draw(st.sets(st.integers(0, max(n_rows - 1, 0)), max_size=2))
    lines = []
    for i in range(n_rows):
        if draw(one_in(8)):
            lines.append([])  # a blank line
        record = [draw(st.sampled_from(GOOD[tag].get(name, TEXTS))) for name in header]
        if i in faulty:
            for idx in draw(st.sets(st.integers(0, len(header) - 1), min_size=1, max_size=2)):
                record[idx] = draw(st.sampled_from(FAULTY))
            if draw(one_in(4)):
                record = record[: draw(st.integers(0, len(record) - 1))]  # a short row
        lines.append(record)
    shown = [name.upper() if draw(st.booleans()) else name for name in header]
    return header, shown, lines


def outcome(parse, path):
    try:
        return parse(path), None
    except (ParseError, ValidationError, SchemaError) as exc:
        return None, exc


def check_against_reference(tag, drawn, tmp_path_factory):
    header, shown, lines = drawn
    path = tmp_path_factory.mktemp("diff") / f"{tag}.csv"
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(shown)
        writer.writerows(lines)
    expected, expected_exc = outcome(PARSERS[tag], path)
    got, got_exc = outcome(lambda p: parse_csv(p, tag), path)

    assert (got_exc is None) == (expected_exc is None), (expected_exc, got_exc)
    if expected_exc is None:
        k = len(SCHEMAS[tag].numeric)
        values = np.array(expected["values"], dtype=float).reshape(-1, k)
        assert np.array_equal(got.values, values)
        assert got.values.tobytes() == values.tobytes()  # signs of zero too
        assert got.zones.tolist() == expected["zones"]
        assert list(got.times) == expected["times"]
        if tag == "imu":
            assert list(got.activities) == expected["activities"]
        assert got.ingest_notes == expected["notes"]
        return
    if isinstance(expected_exc, SchemaError):
        assert type(got_exc) is SchemaError and str(got_exc) == str(expected_exc)
        return
    row = int(re.match(r"row (\d+): ", str(expected_exc)).group(1))
    assert re.match(r"row (\d+): ", str(got_exc)).group(1) == str(row), (expected_exc, got_exc)
    faults = row_faults(tag, header, lines[row - 2])
    assert faults, f"row {row} has no fault the test knows of: {expected_exc}"
    if len(set(faults)) == 1:
        assert type(got_exc) is type(expected_exc), (expected_exc, got_exc)
    if len(faults) == 1:
        assert str(got_exc) == reference_message(expected_exc)


def reference_message(exc):
    """The reference's message, less the row prefix it doubles for a missing zone cell."""
    return re.sub(r"^(row \d+: )\1", r"\1", str(exc))


@settings(max_examples=250, deadline=None)
@given(drawn=csv_files("beacon"))
def test_beacon_parse_matches_reference(drawn, tmp_path_factory):
    check_against_reference("beacon", drawn, tmp_path_factory)


@settings(max_examples=250, deadline=None)
@given(drawn=csv_files("rssi"))
def test_rssi_parse_matches_reference(drawn, tmp_path_factory):
    check_against_reference("rssi", drawn, tmp_path_factory)


@settings(max_examples=250, deadline=None)
@given(drawn=csv_files("imu"))
def test_imu_parse_matches_reference(drawn, tmp_path_factory):
    check_against_reference("imu", drawn, tmp_path_factory)
