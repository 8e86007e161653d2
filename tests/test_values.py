"""JSON parsing, canonical emission, and deep structural comparison."""

import math
import random
from collections import OrderedDict
from enum import IntEnum

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_document
from toonbench.schemas import ArrayType, FloatType, IntType, ObjectType, StrType, validate
from toonbench.toon import encode_toon
from toonbench.values import (DiffPath, DuplicateKeyError, JsonParseError,
                              check_value, deep_equal, emit_canonical_json,
                              format_path, parse_json)


# -- parse_json --------------------------------------------------------------


def test_parse_scalars():
    assert parse_json("null") is None
    assert parse_json("true") is True
    assert parse_json("false") is False
    assert parse_json("42") == 42 and isinstance(parse_json("42"), int)
    assert parse_json("-0") == 0 and isinstance(parse_json("-0"), int)
    assert isinstance(parse_json("42.0"), float)
    assert isinstance(parse_json("1e3"), float)
    assert parse_json('"hi"') == "hi"


def test_parse_nested():
    v = parse_json('{"a": [1, {"b": null}], "c": "x"}')
    assert v == {"a": [1, {"b": None}], "c": "x"}


def test_parse_string_escapes():
    assert parse_json(r'"é\n\t\"\\\/"') == 'é\n\t"\\/'
    # surrogate pair
    assert parse_json(r'"😀"') == "\U0001f600"


def test_parse_rejects_control_chars():
    with pytest.raises(JsonParseError):
        parse_json('"a\x01b"')


def test_parse_rejects_trailing_data():
    with pytest.raises(JsonParseError):
        parse_json('{} {}')


def test_parse_error_position():
    try:
        parse_json('{"a": ]')
    except JsonParseError as e:
        assert e.line == 1 and e.column == 7
    else:
        pytest.fail("expected JsonParseError")


def test_duplicate_key_reports_path():
    with pytest.raises(DuplicateKeyError) as ei:
        parse_json('{"x": {"a": 1, "a": 2}}')
    assert ei.value.key == "a"
    assert "x" in ei.value.segments


def test_parse_rejects_bad_literals():
    for bad in ("nul", "+1", "01", "1.", ".5", "'x'", ""):
        with pytest.raises(JsonParseError):
            parse_json(bad)


def test_parse_numbers_take_ascii_digits_only():
    # str.isdigit() is also true of other scripts' digits and of superscripts
    for bad in ('{"a": \u0661\u0662}', '{"a": 2\u00b2}', "\uff13", "1.\uff15",
                "1e\uff12", "-\u0661"):
        with pytest.raises(JsonParseError):
            parse_json(bad)


# Malformed documents: (text, exception type, line, column).  Syntax errors
# carry the positions json reports; four rows moved from the hand-rolled
# parser's, which pointed past the offending character (old column in the
# comment), and the 5000-digit and 3000-deep rows used to escape as a bare
# ValueError and a RecursionError.  Duplicate keys, non-finite constants and
# overflowing numbers keep their positions, a string holding a lone
# surrogate, escaped or a raw character, is refused at its opening quote, and
# the first problem in document order wins.
MALFORMED = [
    ("", JsonParseError, 1, 1),
    ("   ", JsonParseError, 1, 4),
    ("tru", JsonParseError, 1, 1),
    ("-", JsonParseError, 1, 1),  # was 2
    ("1.", JsonParseError, 1, 2),  # was 3
    ('{"key": "abc', JsonParseError, 1, 9),  # was 13: unterminated string
    ('"a\\qb"', JsonParseError, 1, 3),  # was 4: bad escape
    ('"\\u12G4"', JsonParseError, 1, 3),
    ("{} {}", JsonParseError, 1, 4),
    ('{"a" 1}', JsonParseError, 1, 6),
    ('{"a": 1,}', JsonParseError, 1, 9),
    ("[1 2]", JsonParseError, 1, 4),
    ('{\n  "a": 1,\n  "b": tru\n}', JsonParseError, 3, 8),
    ("[\n1,\n2,\n]", JsonParseError, 4, 1),
    ('{"a": NaN}', JsonParseError, 1, 7),
    ("[-Infinity]", JsonParseError, 1, 3),
    ("[1e999]", JsonParseError, 1, 2),
    ("[1, 1e999, }", JsonParseError, 1, 5),
    ("[" + "9" * 5000 + "]", JsonParseError, 1, 2),
    ("[" * 3000, JsonParseError, 1, 3000),
    ('{"a": 1, "a": 2', DuplicateKeyError, 1, 10),
    ('{"a": 1, "a": 2, }', DuplicateKeyError, 1, 10),
    ('{"d": 1, "d": [NaN]}', DuplicateKeyError, 1, 10),
    ('[{"k": 1}, {"k": 1,\n "k": 2}]', DuplicateKeyError, 2, 2),
    ('{"k": "\\ud83d"}', JsonParseError, 1, 7),  # a lone surrogate, high
    ('{"k": "x\\uDE00"}', JsonParseError, 1, 7),  # and low
    ('{"\\uD83D": 1}', JsonParseError, 1, 2),
    ('{\n "a\\udc00": 1}', JsonParseError, 2, 2),
    ('["\\ude00\\ud83d"]', JsonParseError, 1, 2),  # low before high
    ('[1, "\\ud83d", }', JsonParseError, 1, 5),  # before a syntax error
    ('{"a": "\\ud83d", "a": 1}', JsonParseError, 1, 7),  # before a duplicate
    ('{"k": "\ud83d"}', JsonParseError, 1, 7),  # a raw lone surrogate character
    ('{"k": "x\udc00"}', JsonParseError, 1, 7),
    ('{"\ud83d": 1}', JsonParseError, 1, 2),  # in a key
    ('["\ud83d\ude00"]', JsonParseError, 1, 2),  # a pair of raw ones
    ('["\u00e9\ud83d"]', JsonParseError, 1, 2),  # after other non-ASCII text
    ('[1, "\udc00", }', JsonParseError, 1, 5),  # before a syntax error
    ('{"a": "\ud83d", "a": 1}', JsonParseError, 1, 7),  # before a duplicate
    ('{"a": "\\ud83d\ud83d"}', JsonParseError, 1, 7),  # after an escaped one
]


@pytest.mark.parametrize("text, error, line, column", MALFORMED,
                         ids=[text[:16] for text, *_ in MALFORMED])
def test_malformed_positions(text, error, line, column):
    with pytest.raises(error) as ei:
        parse_json(text)
    assert type(ei.value) is error
    assert (ei.value.line, ei.value.column) == (line, column)


def test_a_lone_surrogate_is_named_an_escape_or_a_raw_character():
    for text, what in [('{"k": "\\ud83d"}', "escape"), ('{"k": "\ud83d"}', "character"),
                       ('{"k": "\\u00e9\ud83d"}', "character")]:
        with pytest.raises(JsonParseError) as ei:
            parse_json(text)
        assert ei.value.message == f"lone surrogate {what}"
    assert parse_json('{"k": "\u00e9\U0001f600"}') == {"k": "\u00e9\U0001f600"}


def test_duplicate_key_path_inside_arrays():
    with pytest.raises(DuplicateKeyError) as ei:
        parse_json('{"a": [1, {"b": 1, "\\u0062": 2}], "a": 3}')
    assert (ei.value.segments, ei.value.key) == (("a", 1), "b")


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_canonical_json_round_trip_keeps_types(seed):
    v = random_document(random.Random(seed))
    # repr tells 1 from 1.0 and True, and shows key order
    assert repr(parse_json(emit_canonical_json(v))) == repr(v)


# -- canonical form ----------------------------------------------------------


def test_emit_canonical_sorts_and_compacts():
    assert emit_canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'


def test_emit_canonical_preserves_unicode():
    assert emit_canonical_json({"k": "é"}) == '{"k":"é"}'


def test_check_value_rejects_nonfinite_and_bad_keys():
    with pytest.raises(ValueError):
        check_value({"a": math.nan})
    with pytest.raises(ValueError):
        check_value({"a": math.inf})
    with pytest.raises(ValueError):
        check_value({1: "x"})


# -- deep_equal --------------------------------------------------------------


def test_equal_regardless_of_key_order():
    ok, diff = deep_equal({"a": 1, "b": 2}, {"b": 2, "a": 1})
    assert ok and diff is None


def test_numeric_unification():
    ok, _ = deep_equal({"a": 2}, {"a": 2.0})
    assert ok


def test_bool_is_not_number():
    ok, diff = deep_equal({"a": True}, {"a": 1})
    assert not ok and diff.kind == "type-mismatch"
    ok, diff = deep_equal({"a": 0}, {"a": False})
    assert not ok


def test_missing_and_extra_keys():
    ok, diff = deep_equal({"a": 1, "b": 2}, {"a": 1})
    assert not ok and diff.kind == "missing-key" and diff.segments == ("b",)
    ok, diff = deep_equal({"a": 1}, {"a": 1, "z": 2})
    assert not ok and diff.kind == "extra-key" and diff.segments == ("z",)


def test_length_mismatch():
    ok, diff = deep_equal({"a": [1, 2]}, {"a": [1]})
    assert not ok and diff.kind == "length-mismatch" and diff.segments == ("a",)


def test_first_diff_is_depth_first_key_sorted():
    a = {"m": {"x": 1, "a": 1}, "z": 5}
    b = {"m": {"x": 1, "a": 2}, "z": 9}
    ok, diff = deep_equal(a, b)
    assert not ok and diff.segments == ("m", "a")


def test_diff_inside_list():
    ok, diff = deep_equal({"a": [{"k": 1}, {"k": 2}]},
                          {"a": [{"k": 1}, {"k": 3}]})
    assert not ok and diff.segments == ("a", 1, "k")
    assert format_path(diff.segments) == "$.a[1].k"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, (1, 2)])
def test_deep_equal_rejects_unsupported_values(bad):
    # wherever the bad value sits, also past the first difference
    for a, b in (({"a": bad}, {"a": bad}), ({"a": 1}, {"a": bad}),
                 ({"a": 1, "z": [bad]}, {"a": 2, "z": [1]}),
                 ({"a": [1, 2]}, {"a": [1], "b": {"c": bad}}), (bad, "x")):
        for x, y in ((a, b), (b, a)):
            with pytest.raises(ValueError):
                deep_equal(x, y)


class Role(IntEnum):
    ADMIN = 1


class Name(str):
    pass


def test_subclasses_of_the_value_types_are_values():
    """An OrderedDict, an IntEnum member and a str subclass are what their
    base types are to every walk over a Value."""
    v = OrderedDict([("id", Role.ADMIN), ("name", Name("Ada")), ("tags", [Name("x"), 2.5])])
    plain = {"id": 1, "name": "Ada", "tags": ["x", 2.5]}
    schema = ObjectType((("id", IntType()), ("name", StrType()),
                         ("tags", ArrayType(StrType()))))
    check_value(v)
    assert emit_canonical_json(v) == emit_canonical_json(plain)
    assert encode_toon(v) == encode_toon(plain)
    assert deep_equal(v, plain) == (True, None)
    assert deep_equal(plain, OrderedDict(v, id=Role.ADMIN + 1))[1].segments == ("id",)
    assert [str(e) for e in validate(v, schema)] == ["$.tags[1]: expected str, found float"]
    assert validate(Role.ADMIN, FloatType()) == validate(Name("7"), IntType()) == []


def test_format_path_root():
    assert format_path(()) == "$"
