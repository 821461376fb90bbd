"""files.emit, the one JSON writer, against the json.dumps layout it replaces."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from derpair import files

# characters json escapes (quotes, backslashes, control characters, a lone
# surrogate) next to ones it writes as they are when ensure_ascii is off
SPECIAL = st.sampled_from(list('"\\/\x00\x01\x08\t\n\x0c\r\x1f\x7f\x80\u00e9\u2028\u2029'
                               '\ud800\ufeff\uffff\U0001f600 aZ09'))
TEXT = st.one_of(st.text(), st.text(alphabet=SPECIAL))
INTEGERS = st.one_of(st.integers(), st.integers(max_value=-2 ** 64),
                     st.integers(min_value=2 ** 200))
FLOATS = st.one_of(st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0,
                                                 5e-324, 1e300, 1e16, 0.1]))
SCALARS = st.one_of(st.none(), st.booleans(), INTEGERS, FLOATS, TEXT)
TREES = st.recursive(SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=5), st.dictionaries(TEXT, inner, max_size=5)), max_leaves=40)


def _dumped(doc) -> str:
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(st.one_of(st.dictionaries(TEXT, TREES, max_size=6), TREES))
def test_emit_writes_the_bytes_of_indented_json_dumps(doc):
    assert files.emit(doc) == _dumped(doc)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(st.dictionaries(st.text(max_size=8), st.one_of(FLOATS, st.lists(FLOATS, max_size=4),
                                                      st.dictionaries(st.text(max_size=4),
                                                                      FLOATS, max_size=3)),
                       max_size=4))
def test_a_parsed_provenance_of_floats_is_written_as_json_writes_it(provenance):
    # only a provenance read from a file can hold a float; NaN and the
    # infinities round-trip through json's NaN, Infinity and -Infinity
    text = _dumped({"dimension": 2, "kind": "associative",
                    "products": {"mu": [[0, 1, 1, "1/2"]]}, "derivations": {},
                    "provenance": provenance})
    p = files.parse_presentation(text)
    assert files.emit_presentation(p) == _dumped(files.presentation_to_dict(p))


@pytest.mark.parametrize("doc", [
    {1, 2}, object(), {"a": {1}}, {"a": [1, "x", object()]}, [[1], [frozenset()]],
    {"a": (1, 2)}, b"bytes", 1j, {1: "an int key"}, {None: "a None key"}])
def test_emit_refuses_what_is_not_json(doc):
    with pytest.raises(TypeError):
        files.emit(doc)
