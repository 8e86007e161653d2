"""TOON codec: encoding shapes, parsing, error kinds, and round trips."""

import random
from importlib import resources

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import random_document
from toonbench.toon import (ToonError, encode_toon, extract_toon_block,
                            parse_toon, toon_to_json, NonObjectRoot)
from toonbench.values import deep_equal, emit_canonical_json


def reference_example() -> str:
    return (resources.files("toonbench") / "fixtures"
            / "reference_example.toon").read_text(encoding="utf-8")


# -- reference document ------------------------------------------------------


def test_reference_example_parses_and_reencodes_identically():
    text = reference_example()
    doc = parse_toon(text)
    assert len(doc.root["sections"]) == 2
    assert doc.root["summary"]["total"] == 3
    assert doc.root["sections"][0]["items"][0] == {"id": 1, "value": "First"}
    assert encode_toon(doc.root) == text


def test_reference_example_array_metadata():
    doc = parse_toon(reference_example())
    assert doc.arrays[("sections",)].layout == "list"
    assert doc.arrays[("sections",)].declared_count == 2
    items0 = doc.arrays[("sections", 0, "items")]
    assert items0.layout == "tabular" and items0.headers == ("id", "value")


# -- encoding ----------------------------------------------------------------


def test_encode_shapes():
    v = {"a": 1, "b": {"c": "x"}, "d": [1, "two"],
         "e": [{"p": 1, "q": 2}, {"p": 3, "q": 4}]}
    assert encode_toon(v) == (
        "a: 1\n"
        "b:\n"
        "  c: x\n"
        "d[2]:\n"
        "  - 1\n"
        "  - two\n"
        "e[2]{p,q}:\n"
        "  1,2\n"
        "  3,4\n")


def test_encode_item_object_folds_first_field():
    v = {"xs": [{"a": 1, "b": 2}, {"a": 3}]}  # non-uniform: list layout
    assert encode_toon(v) == (
        "xs[2]:\n"
        "  - a: 1\n"
        "    b: 2\n"
        "  - a: 3\n")


def test_encode_quoting_rules():
    v = {"a": "true", "b": "3.5", "c": "x, y", "d": "a:b", "e": " pad ",
         "f": "", "g": "-lead", "h": "br[ack", "i": "he said \"hi\"\n"}
    out = encode_toon(v)
    assert 'a: "true"' in out
    assert 'b: "3.5"' in out
    assert 'c: "x, y"' in out
    assert 'd: "a:b"' in out
    assert 'e: " pad "' in out
    assert 'f: ""' in out
    assert 'g: "-lead"' in out
    assert 'h: "br[ack"' in out
    assert 'i: "he said \\"hi\\"\\n"' in out
    assert deep_equal(v, parse_toon(out).root)[0]


def test_encode_empty_containers():
    assert encode_toon({}) == ""
    assert encode_toon({"a": []}) == "a[0]:\n"
    assert encode_toon({"a": {}}) == "a:\n"
    assert parse_toon("a:\n").root == {"a": {}}
    assert encode_toon({"a": [{}]}) == "a[1]:\n  -\n"
    assert parse_toon("a[1]:\n  -\n").root == {"a": [{}]}


def test_encode_rejects_non_object_root():
    with pytest.raises(NonObjectRoot):
        encode_toon([1, 2])
    with pytest.raises(NonObjectRoot):
        encode_toon("scalar")


# -- parse errors ------------------------------------------------------------


def _err(text: str) -> ToonError:
    with pytest.raises(ToonError) as ei:
        parse_toon(text)
    return ei.value


def test_count_mismatch_too_few_and_too_many():
    e = _err("a[3]:\n  - 1\n  - 2\n")
    assert e.kind == "count-mismatch"
    e = _err("a[1]:\n  - 1\n  - 2\n")
    assert e.kind == "count-mismatch"
    e = _err("a[2]{x}:\n  1\n")
    assert e.kind == "count-mismatch"


def test_arity_mismatch():
    e = _err("a[1]{x,y}:\n  1\n")
    assert e.kind == "arity-mismatch"
    e = _err("a[1]{x,y}:\n  1,2,3\n")
    assert e.kind == "arity-mismatch"


def test_bad_indent():
    assert _err("a:\n\t b: 1\n").kind == "bad-indent"
    assert _err("a:\n   b: 1\n").kind == "bad-indent"


def test_unexpected_token_errors():
    assert _err("a:1\n").kind == "unexpected-token"  # no space after colon
    assert _err(": 1\n").kind == "unexpected-token"
    assert _err("a[x]:\n").kind == "unexpected-token"


def test_duplicate_keys_rejected():
    assert _err("a: 1\na: 2\n").kind == "unexpected-token"


def test_interior_blank_line_rejected_trailing_allowed():
    assert _err("a: 1\n\nb: 2\n").kind == "unexpected-token"
    assert parse_toon("a: 1\n\n").root == {"a": 1}


def test_error_carries_line_number():
    e = _err("a: 1\nb[2]:\n  - 1\n")
    assert e.kind == "count-mismatch" and e.line == 2


# -- scalar lexing -----------------------------------------------------------


def test_scalar_lexing():
    doc = parse_toon("a: true\nb: null\nc: -7\nd: 2.5\ne: hello world\n"
                     "f: \"true\"\ng: 1e3\n")
    r = doc.root
    assert r["a"] is True and r["b"] is None and r["c"] == -7
    assert r["d"] == 2.5 and r["e"] == "hello world"
    assert r["f"] == "true" and isinstance(r["f"], str)
    assert r["g"] == 1000.0 and isinstance(r["g"], float)


def test_numerals_take_ascii_digits_only():
    doc = parse_toon("a: \u0661\u0662\nb: \uff13.5\nc: 1e\u00b2\n")
    assert doc.root == {"a": "\u0661\u0662", "b": "\uff13.5", "c": "1e\u00b2"}
    assert _err("a[\uff12]: 1,2\n").kind == "unexpected-token"
    v = {"a": "\u0661\u0662", "b": "-\uff13"}
    assert parse_toon(encode_toon(v)).root == v


# -- fence extraction --------------------------------------------------------


def test_extract_toon_fence():
    out = "Sure!\n```toon\na: 1\n```\nthanks"
    assert extract_toon_block(out) == "a: 1\n"


def test_extract_generic_fence():
    assert extract_toon_block("```\na: 1\n```") == "a: 1\n"


def test_extract_whole_output_when_it_parses():
    assert extract_toon_block("a: 1\n") == "a: 1\n"


def test_extract_missing_fence():
    with pytest.raises(ToonError) as ei:
        extract_toon_block("no structured content here")
    assert ei.value.kind == "missing-fence"


def test_toon_to_json_is_canonical():
    assert toon_to_json("b: 1\na: 2\n") == '{"a":2,"b":1}'


# -- round trips -------------------------------------------------------------


def test_random_round_trip_seeded():
    rng = random.Random(20260823)
    for _ in range(300):
        v = random_document(rng)
        out = encode_toon(v)
        ok, diff = deep_equal(v, parse_toon(out).root)
        assert ok, (v, out, diff)


@st.composite
def json_values(draw, depth=3):
    scalar = st.one_of(
        st.none(), st.booleans(), st.integers(-10**9, 10**9),
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        st.text(max_size=8))
    if depth == 0:
        return draw(scalar)
    return draw(st.one_of(
        scalar,
        st.lists(json_values(depth=depth - 1), max_size=4),
        st.dictionaries(st.text(max_size=6), json_values(depth=depth - 1),
                        max_size=4)))


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.text(min_size=1, max_size=6), json_values(), max_size=4))
@example({"0": "\xa0"})  # Unicode whitespace the parser strips at line end
@example({"0": "\x85"})
def test_hypothesis_round_trip(v):
    out = encode_toon(v)
    ok, diff = deep_equal(v, parse_toon(out).root)
    assert ok, (out, diff)


def test_round_trip_preserves_canonical_json():
    v = {"nums": [1, 2.5, -3], "s": "a,b", "o": {"deep": {"x": None}}}
    assert (emit_canonical_json(parse_toon(encode_toon(v)).root)
            == emit_canonical_json(v))
