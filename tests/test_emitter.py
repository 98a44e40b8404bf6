"""The CLI writes its documents without the ``json`` package, byte for byte as it would."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from succorder import cli

#: Characters ``ensure_ascii`` treats apart: the short escapes, the ends of
#: printable ASCII, DEL, lone surrogates and both ends of the astral planes.
_SPECIAL = (
    '\x00\b\t\n\f\r\x1f"\\ ~\x7f\x80\xe9\u2028\ud7ff\ud800\udbff\udc00\udfff\uffff'
    "\U00010000\U0001f600\U0010fc00\U0010ffff"
)

#: The strings the emitter writes: printable ASCII but the quote and the backslash.
_strings = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E, blacklist_characters='"\\'))
_scalars = st.one_of(
    _strings,
    st.integers(),
    st.integers(-(2**200), 2**200),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
)
_documents = st.recursive(
    _scalars, lambda inner: st.lists(inner) | st.dictionaries(_strings, inner), max_leaves=12
)


def both_forms(value):
    """``value`` in ``--json``'s form and in the human output's."""
    return cli._json(value, (",", ":")), cli._json(value, (", ", ": "))


def json_forms(value):
    return (json.dumps(value, sort_keys=True, separators=(",", ":")),
            json.dumps(value, sort_keys=True))


@pytest.mark.parametrize("char", list(_SPECIAL))
def test_each_special_character_is_escaped_as_json_does(char):
    # the emitter writes what json.dumps leaves unescaped, the two ends of
    # printable ASCII among these, and refuses the rest
    if char in " ~":
        assert both_forms(char) == json_forms(char)
        assert both_forms({char: [char]}) == json_forms({char: [char]})
        return
    for value in (char, f"a{char}b", [char], {char: 1}, {"k": char}):
        for separators in ((",", ":"), (", ", ": ")):
            with pytest.raises(TypeError, match="needs a JSON escape"):
                cli._json(value, separators)


@settings(max_examples=50, deadline=None)
@given(st.tuples(_strings, st.characters(min_codepoint=0x80), _strings).map("".join))
def test_non_ascii_strings_raise_type_error(text):
    with pytest.raises(TypeError, match="needs a JSON escape"):
        cli._json({"payload": [text]}, (",", ":"))


@pytest.mark.parametrize(
    "value",
    [2**64, -(2**64) - 1, 0.1, -0.0, 1e300, True, False, [], {}, {"b": 1, "a": [True, 1.5]}],
)
def test_scalars_and_empty_containers(value):
    assert both_forms(value) == json_forms(value)


# after the fixed cases, which fail faster than a shrinking property
@settings(max_examples=150, deadline=None)
@given(_documents)
def test_matches_json_dumps(value):
    assert both_forms(value) == json_forms(value)


@pytest.mark.parametrize(
    "value",
    [None, (1,), {1}, b"x", Fraction(1, 2), float("nan"), float("inf"), float("-inf"),
     {1: "a"}, {b"k": 1}, ["0", None], {"a": [{"b": (2,)}]}],
)
def test_other_types_raise_type_error(value):
    for separators in ((",", ":"), (", ", ": ")):
        with pytest.raises(TypeError):
            cli._json(value, separators)
