"""``render.to_json`` against the indenting ``json`` encoder it stands in for."""

import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from locbench.render import to_json

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
