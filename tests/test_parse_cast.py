"""The numeric cast of the parse against ``float``, one cell at a time.

numpy's reader reads the numeric columns as text, and casts them to
float, when its float reader refuses a cell or the file holds one of the
separator bytes 0x1C-0x1F.  Every cell of the differential pools, padded
with spaces or those bytes and quoted or not, goes alone into a one-row
file.  A cell ``float`` reads must parse to ``float``'s value, bit for
bit (or, if that value is non-finite or out of range, fail as the
reference parser says); any other cell must fail with the row walker's
error text.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from locbench.data import SCHEMAS, ParseError, SchemaError, ValidationError, parse_csv
from reference_data import PARSERS
from test_data_differential import CHANNELS, DISTANCES, FAULTY, POSITIONS, READINGS

CELLS = sorted(set(POSITIONS + DISTANCES + READINGS + CHANNELS + FAULTY))
PADDING = st.text(alphabet=" \x1c\x1d\x1e\x1f", max_size=2)


def outcome(parse, path):
    try:
        return parse(path), None
    except (ParseError, ValidationError, SchemaError) as exc:
        return None, exc


@st.composite
def one_cell_files(draw):
    tag = draw(st.sampled_from(sorted(SCHEMAS)))
    schema = SCHEMAS[tag]
    column = draw(st.integers(0, len(schema.numeric) - 1))
    text = draw(PADDING) + draw(st.sampled_from(CELLS)) + draw(PADDING)
    quoted = draw(st.booleans())
    return tag, column, text, quoted


@settings(max_examples=500, deadline=None)
@given(drawn=one_cell_files())
def test_a_cell_parses_as_float_reads_it(drawn, tmp_path_factory):
    tag, column, text, quoted = drawn
    schema = SCHEMAS[tag]
    header = list(schema.numeric) + [col.name for col in schema.text]
    row = ["0"] * len(schema.numeric) + ["kitchen"] * len(schema.text)
    row[column] = '"' + text + '"' if quoted else text
    path = tmp_path_factory.mktemp("cast") / f"{tag}.csv"
    path.write_bytes((",".join(header) + "\n" + ",".join(row) + "\n").encode("utf-8"))

    got, exc = outcome(lambda p: parse_csv(p, tag), path)
    try:
        value = float(text)
    except ValueError:
        name = schema.numeric[column]
        assert type(exc) is ParseError, exc
        assert str(exc) == f"row 2: non-numeric value {text!r} in column {name!r}"
        return
    _, expected_exc = outcome(PARSERS[tag], path)
    if expected_exc is None:
        assert exc is None, exc
        assert got.values[0, column].tobytes() == np.float64(value).tobytes()
    else:  # non-finite or out of range
        assert type(exc) is type(expected_exc) and str(exc) == str(expected_exc)
