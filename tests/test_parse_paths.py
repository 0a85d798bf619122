"""The parse's two paths, numpy's C reader and the row walker, against the reference.

Each case is a whole file.  ``parse_csv`` parses it by the path it picks,
and again with the C reader switched off, so every case also runs
through the row walker.  Both runs must give the reference parser's
table, or its error text, and the first run must take the path the case
names: the C reader for files it can read whole, quoted cells included,
and the walker for cells only ``float`` reads, the separator bytes
0x1C-0x1F, a header across lines, a field over the csv field limit and
files with a fault.
"""

import csv
import re
import warnings

import numpy as np
import pytest

from locbench import data
from locbench.data import ParseError, SchemaError, ValidationError, parse_csv
from reference_data import PARSERS

BEACON = "position_x,position_y,distance_a,distance_b,distance_c,time"
RSSI = "RSSI Bedroom,RSSI Kitchen,RSSI Office,RSSI Toilet,Location"
IMU = "acc_x,acc_y,acc_z,gyro_x,gyro_y,gyro_z,location,activity"
LIMIT = csv.field_size_limit()


def lines(header, *rows, end="\n"):
    return (end.join((header,) + rows) + end).encode("utf-8")


#: name -> (schema tag, file bytes, the path parse_csv takes: "reader", "walker", or
#: None when the header fails)
CASES = {
    "lf": ("beacon", lines(BEACON, "1,2,0.5,0.6,0.7,t0", "3,4,0,0.1,0.2,t1"), "reader"),
    "crlf": ("beacon", lines(BEACON, "1,2,0.5,0.6,0.7,t0", "3,4,1,1,1,t1", end="\r\n"), "reader"),
    "lone-cr": ("beacon", lines(BEACON, "1,2,0.5,0.6,0.7,t0", "3,4,1,1,1,t1", end="\r"), "reader"),
    "mixed-ends": (
        "beacon",
        f"{BEACON}\r\n1,2,0.5,0.6,0.7,t0\r3,4,1,1,1,t1\n5,6,1,1,1,t2".encode(),
        "reader",
    ),
    "blank-lines": ("beacon", lines(BEACON, "", "1,2,0.5,0.6,0.7,t0", "", "", "3,4,1,1,1,t1"), "reader"),
    "byte-order-mark": ("beacon", b"\xef\xbb\xbf" + lines(BEACON, "1,2,0.5,0.6,0.7,t0"), "reader"),
    "byte-order-mark-crlf": (
        "beacon",
        b"\xef\xbb\xbf" + lines(BEACON, "1,2,0.5,0.6,0.7,t0", end="\r\n"),
        "reader",
    ),
    "header-only": ("beacon", lines(BEACON), "reader"),
    "header-then-blank-lines": ("beacon", lines(BEACON, "", ""), "reader"),
    "padded-cells": ("beacon", lines(BEACON, " 1 ,2\t,\xa00.5, 0.6 ,7e-1,  spaced  "), "reader"),
    "long-row": ("beacon", lines(BEACON, "1,2,0.5,0.6,0.7,t0,extra,cells"), "reader"),
    "control-characters-in-text": (
        "beacon",
        lines(BEACON, "1,2,0.5,0.6,0.7,a\x00b", "1,2,0.5,0.6,0.7,c\x0bd\x0ce\x85f g"),
        "reader",
    ),
    "quoted-cells": (
        "beacon",
        lines(BEACON, '1,2,0.5,0.6,0.7,"day 1, ""t0""\r\nnext"', '"3","4",1,1,1,"t\rx"'),
        "reader",
    ),
    "quoted-cells-crlf": (
        "beacon",
        lines(BEACON, '"1",2,"0.5",0.6,0.7,"day 1, t0"', '3,"4",1,1,1,""""', end="\r\n"),
        "reader",
    ),
    "line-break-in-an-unread-column": (
        "beacon",
        lines(BEACON + ",note", '1,2,0.5,0.6,0.7,t0,"a\r\nb"', "3,4,1,1,1,t1,c"),
        "reader",
    ),
    "quote-inside-a-cell": ("beacon", lines(BEACON, '1,2,0.5,0.6,0.7,t"0'), "reader"),
    "value-fault-after-a-line-break": (
        "beacon",
        lines(BEACON, '1,2,0.5,0.6,0.7,"t\n0"', "1,2,oops,0.6,0.7,t1"),
        "walker",
    ),
    "csv-fault-after-a-line-break": (
        "beacon",
        lines(BEACON, '1,2,0.5,0.6,0.7,"t\n0"', "1,2,0.5,0.6,0.7," + "x" * (LIMIT + 1)),
        "walker",
    ),
    "underscore-digits": ("beacon", lines(BEACON, "1_0,2,0.5,0.6,0.7,t0"), "walker"),
    "full-width-digit": ("beacon", lines(BEACON, "３,2,0.5,0.6,0.7,t0"), "walker"),
    "header-across-two-lines": (
        "beacon",
        lines(BEACON[: -len("time")] + '"time\n"', "1,2,0.5,0.6,0.7,t0", "1,2,0.5,0.6,0.7,t1"),
        "walker",
    ),
    "header-across-two-lines-that-numpy-would-read-as-a-row": (
        # numpy's skiprows counts lines, so it would start inside the header.
        "beacon",
        lines('"note\nx,1,2,3,4,5,t0",' + BEACON, "n,1,2,0.5,0.6,0.7,t1"),
        "walker",
    ),
    "header-across-two-lines-unknown-column": (
        "beacon",
        lines(BEACON[: -len("time")] + '"ti\nme"', "1,2,0.5,0.6,0.7,t0"),
        None,
    ),
    "line-over-the-field-limit": (
        "beacon",
        lines(BEACON, "1,2,0.5,0.6,0.7,t0" + ",x" * (LIMIT // 2 + 1)),
        "reader",
    ),
    "field-over-the-limit": (
        "beacon",
        lines(BEACON, "1,2,0.5,0.6,0.7,t0", "1,2,0.5,0.6,0.7," + "x" * (LIMIT + 1)),
        "walker",
    ),
    "quoted-field-over-the-limit-across-short-lines": (
        "beacon",
        lines(BEACON, '1,2,0.5,0.6,0.7,"' + "x\n" * (LIMIT // 2 + 1) + '"'),
        "walker",
    ),
    "whitespace-only-line": ("beacon", lines(BEACON, "1,2,0.5,0.6,0.7,t0", " "), "walker"),
    "tab-only-line": ("beacon", lines(BEACON, "1,2,0.5,0.6,0.7,t0", "\t", end="\r\n"), "walker"),
    "short-row": ("beacon", lines(BEACON, "1,2,0.5,0.6,0.7,t0", "1,2,0.5"), "walker"),
    "short-row-without-its-text-cell": ("beacon", lines(BEACON, "1,2,0.5,0.6,0.7"), "walker"),
    "separator-around-a-number": ("beacon", lines(BEACON, "\x1c1,2,0.5,0.6,0.7,t0"), "walker"),
    "non-finite": ("beacon", lines(BEACON, "1,2,0.5,0.6,0.7,t0", "1,2,inf,0.6,0.7,t1"), "walker"),
    "overflow": ("beacon", lines(BEACON, "1e400,2,0.5,0.6,0.7,t0"), "walker"),
    "negative-distance": ("beacon", lines(BEACON, "1,2,0.5,-0.6,0.7,t0"), "walker"),
    "empty-cell": ("beacon", lines(BEACON, "1,,0.5,0.6,0.7,t0"), "walker"),
    "rssi-zones": (
        "rssi",
        lines(RSSI, "-120,-70,-120,-120,Kitchen", "-55.5,-120,-120,-120, bedroom ", end="\r\n"),
        "reader",
    ),
    "rssi-unknown-zone": ("rssi", lines(RSSI, "-120,-70,-120,-120,kitchen", "0,0,0,0,garage"), "walker"),
    "rssi-reading-above-zero": ("rssi", lines(RSSI, "-120,5,-120,-120,office"), "walker"),
    "imu-activities": (
        "imu",
        lines(IMU, "0.1,0.2,0.3,0.4,0.5,0.6,office, Cooking ", "1,2,3,4,5,6,toilet,", end="\r"),
        "reader",
    ),
    "empty-file": ("beacon", b"", None),
}


def reference(tag, path):
    try:
        return PARSERS[tag](path), None
    except (ParseError, ValidationError, SchemaError) as exc:
        return None, exc


def parse(tag, path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the blank-input warning stays inside the parse
        try:
            return parse_csv(path, tag), None
        except (ParseError, ValidationError, SchemaError) as exc:
            return None, exc


def assert_same(tag, path, got, expected):
    (dataset, exc), (table, expected_exc) = got, expected
    if expected_exc is None:
        assert exc is None, exc
        values = np.array(table["values"], dtype=float).reshape(dataset.values.shape)
        assert dataset.values.tobytes() == values.tobytes()
        assert dataset.zones.tolist() == table["zones"]
        assert list(dataset.times) == table["times"]
        if tag == "imu":
            assert list(dataset.activities) == table["activities"]
        assert dataset.ingest_notes == table["notes"]
    else:
        assert type(exc) is type(expected_exc)
        # The reference doubles the row prefix for a row without its text cell.
        assert str(exc) == re.sub(r"^(row \d+: )\1", r"\1", str(expected_exc))


@pytest.mark.parametrize("case", sorted(CASES))
def test_both_paths_match_the_reference(case, tmp_path, monkeypatch):
    tag, content, path_taken = CASES[case]
    path = tmp_path / f"{case}.csv"
    path.write_bytes(content)
    expected = reference(tag, path)

    taken = []
    for name, path_name in (("_read_columns", "reader"), ("_checked_rows", "walker")):
        step = getattr(data, name)
        spy = lambda *args, step=step, path_name=path_name: taken.append(path_name) or step(*args)
        monkeypatch.setattr(data, name, spy)
    assert_same(tag, path, parse(tag, path), expected)
    assert (taken[-1] if taken else None) == path_taken

    monkeypatch.setattr(data, "_read_columns", lambda *args: None)
    assert_same(tag, path, parse(tag, path), expected)


def test_the_cases_cover_both_outcomes_on_both_paths(tmp_path):
    outcomes = set()
    for case, (tag, content, path_taken) in CASES.items():
        path = tmp_path / f"{case}.csv"
        path.write_bytes(content)
        outcomes.add((path_taken, reference(tag, path)[1] is None))
    assert outcomes == {("reader", True), ("walker", True), ("walker", False), (None, False)}
