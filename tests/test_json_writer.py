"""The CLI's JSON writer writes what
``json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)`` writes."""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from slopedesign.cli import _json


def dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)


texts = st.one_of(
    st.text(),
    st.sampled_from(["", "\"", "\\", "a\"b\\c", "\n\t\r\b\f\x00\x1f\x7f",
                     "é", "日本", "\U0001f600", "\ud800", "</script>"]),
)
finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                     -1.7976931348623157e308, 1e16, 1e-7, 0.1, 1.0]),
)
scalars = st.one_of(
    st.none(), st.booleans(), finite, texts,
    st.integers(), st.integers(min_value=10**30, max_value=10**60),
)
documents = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(finite, max_size=8),  # the joined path for float lists
        st.dictionaries(texts, inner, max_size=5),
    ),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(documents)
def test_writer_matches_json_dumps(doc):
    assert _json(doc) == dumps(doc)


@pytest.mark.parametrize("doc", [
    {}, [], {"a": {}}, {"a": []}, [[], {}], [[[]]], {"": None},
    [1.0, 2, 3.0], [True, 1.0], [1.0, None], [-0.0, 5e-324],
    (1.0, 2.0), {"b": (1, "x")}, 10**400, -(10**400),
])
def test_edge_documents(doc):
    assert _json(doc) == dumps(doc)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("wrap", [
    lambda v: v, lambda v: [v], lambda v: [1.0, v, 2.0],
    lambda v: {"k": [0.5, v]}, lambda v: {"k": v}, lambda v: [[1, v]],
])
def test_non_finite_floats_raise_value_error(bad, wrap):
    doc = wrap(bad)
    with pytest.raises(ValueError):
        dumps(doc)
    with pytest.raises(ValueError, match="not JSON compliant"):
        _json(doc)


def test_other_objects_raise_type_error():
    for doc in (object(), {1: 2}, [b"bytes"], {"k": {1.5}}):
        with pytest.raises(TypeError):
            _json(doc)
