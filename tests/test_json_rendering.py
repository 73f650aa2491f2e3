"""render_json writes, in one pass over raw report values, the bytes of
json.dumps(jsonable(doc), indent=2, allow_nan=False) plus a newline."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from collisionlab.reports import jsonable, render_json


def reference(doc) -> str:
    return json.dumps(jsonable(doc), indent=2, allow_nan=False) + "\n"


def outcome(render, doc):
    """The rendered text, or the type of the exception rendering raised."""
    try:
        return render(doc)
    except (TypeError, ValueError) as exc:
        return type(exc)


strings = st.one_of(
    st.text(),
    st.sampled_from(['"', "\\", '\\"', "\x00\x1f\x7f", "\n\t\r\b\f", "é ü ß", "  ",
                     "\U0001f600", "\ud800", "</script>", ""]),
)
floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, 1e-7, 1e22, 1e16, 5e-324, math.nan, math.inf, -math.inf]),
)
leaves = st.one_of(
    strings,
    st.integers(),
    st.sampled_from([2**64, -(2**64), 10**40 + 1, -1]),
    st.booleans(),
    st.none(),
    floats,
    st.fractions(),
    st.sampled_from([Fraction(-3, 7), Fraction(4), Fraction(-5), Fraction(0)]),
    floats.map(np.float64),
)
keys = st.one_of(strings, st.integers(), floats, st.booleans(), st.none())
docs = st.recursive(
    leaves,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(keys, kids, max_size=4),
    ),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None)
@given(docs)
def test_render_json_is_json_dumps_of_jsonable(doc):
    assert outcome(render_json, doc) == outcome(reference, doc)


@pytest.mark.parametrize("doc", [
    {},
    [],
    (),
    {"a": {}, "b": [], "c": [[], {}, [[]]]},
    {"rows": [{"n": 4, "closed": Fraction(-1, 3), "equal": True}]},
    {1: "int", 1.5: "float", True: "bool", None: "null", -0.0: "negative zero"},
    [np.float64(0.1), np.float64(math.nan), np.float64(-math.inf)],
])
def test_render_json_matches_on_fixed_documents(doc):
    assert render_json(doc) == reference(doc)


@pytest.mark.parametrize("bad", [set(), {1, 2}, object(), np.int64(3), Fraction])
def test_values_json_rejects_raise_type_error_on_both_sides(bad):
    for doc in (bad, [bad], {"a": {"b": bad}}):
        with pytest.raises(TypeError):
            reference(doc)
        with pytest.raises(TypeError):
            render_json(doc)


@pytest.mark.parametrize("key, error", [
    (Fraction(1, 2), TypeError),
    ((1, 2), TypeError),
    (math.nan, ValueError),
    (-math.inf, ValueError),
])
def test_keys_json_rejects_raise_the_same_error(key, error):
    with pytest.raises(error):
        reference({key: 1})
    with pytest.raises(error):
        render_json({key: 1})
