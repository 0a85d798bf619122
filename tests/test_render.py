"""``render.to_json`` against the indenting ``json`` encoder it stands in for,
and the mode of the files ``render.write_atomic`` writes."""

import json
import math
import os
import stat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locbench.render import to_json, write_atomic

floats = st.floats(allow_nan=True, allow_infinity=True)
scalars = st.none() | st.booleans() | st.integers() | floats | st.text(max_size=6)
float_lists = st.lists(floats, min_size=50, max_size=300) | st.lists(
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e-320, 0.1]), max_size=300
)


def containers(inner):
    """Lists, tuples and dicts; each dict's keys share one type, as sorting needs."""
    key_types = (st.text(max_size=6), st.integers(), floats, st.booleans())
    dicts = (st.dictionaries(key, inner, max_size=5) for key in key_types)
    return st.lists(inner, max_size=5) | st.tuples(inner, inner) | st.one_of(*dicts)


payloads = st.recursive(scalars | float_lists, containers, max_leaves=25)


def expected(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@settings(max_examples=300, deadline=None)
@given(payloads)
def test_matches_the_indenting_encoder(payload):
    assert to_json(payload) == expected(payload)


def test_non_finite_floats_and_empty_containers():
    payload = {
        "errors": [math.nan, math.inf, -math.inf, -0.0, 1.5],
        "empty": [],
        "nested": {"none": {}, "lists": [[], {}, [1, [2.5, "x"]]]},
    }
    assert to_json(payload) == expected(payload)
    assert to_json([]) == "[]\n" and to_json({}) == "{}\n" and to_json(math.nan) == "NaN\n"


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002, 0o000, 0o027])
def test_report_mode_honours_the_umask(tmp_path, umask):
    path = tmp_path / "report.json"
    path.write_text("old\n")
    path.chmod(0o600)
    previous = os.umask(umask)
    try:
        write_atomic(path, "new\n")
        write_atomic(tmp_path / "fresh.md", "text\n")
        assert os.umask(umask) == umask  # reading the umask left it as it was
    finally:
        os.umask(previous)
    # The mode open() gives a new file; a replaced report takes it too.
    for written in (path, tmp_path / "fresh.md"):
        assert stat.S_IMODE(written.stat().st_mode) == 0o666 & ~umask
    assert path.read_text() == "new\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh.md", "report.json"]
