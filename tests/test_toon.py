"""TOON codec: encoding shapes, parsing, error kinds, and round trips."""

import random
import sys
from importlib import resources

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import random_document
from toonbench.mask import init_state, is_accepting
from toonbench.mask.engine import advance_bytes
from toonbench.toon import (ToonError, encode_toon, extract_toon_block,
                            parse_toon, toon_to_json, NonObjectRoot)
from toonbench.values import deep_equal, emit_canonical_json, parse_json


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


def test_header_names_quote_as_keys_the_automaton_accepts():
    """Tabular header names take the key quoting rule, so the encoding of an
    ASCII document is accepted by the toon automaton, which lexes them as
    keys, at the top level, nested and in a list item."""
    rng = random.Random(909)
    for _ in range(300):
        names = {"".join(rng.choice("ab_ .-09") for _ in range(rng.randrange(1, 6)))
                 for _ in range(rng.randrange(1, 4))}
        rows = [{h: rng.choice([1, -2.5, None, True, "x y", "a,b", ""]) for h in names}
                for _ in range(rng.randrange(1, 4))]
        v = {"t": rows, "o": {"t": rows}, "l": [rows, 1]}
        text = encode_toon(v)
        assert is_accepting(advance_bytes(init_state("toon"), text.encode())), text
        assert deep_equal(v, parse_toon(text).root)[0], text


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


# Positioned errors: (text, line, column, kind), each site at indent 0 and
# again below it, in a nested value, a list item, a tabular header or a row.
# Columns are 1-based from the start of the raw line, indentation included.
# Rows with the old column in a comment moved: below the top level it counted
# the indentation twice, a duplicate key pointed at column 1 whatever its
# indent, and a numeral int() or float() cannot hold pointed at the start of
# its line.
_DIGITS = "1" * 5000
POSITIONED = [
    ("\tb: 1\n", 1, 1, "bad-indent"),
    ("a:\n  \tb: 1\n", 2, 3, "bad-indent"),
    ("a: 1\n\nb: 2\n", 2, 1, "unexpected-token"),
    ("a:\n  b: 1\n\n  c: 2\n", 3, 1, "unexpected-token"),
    ("  a: 1\n", 1, 3, "bad-indent"),
    ("a:\n   b: 1\n", 2, 4, "bad-indent"),
    ("a[1]:\n  - b: 1\n     c: 2\n", 3, 6, "bad-indent"),
    ("- a\n", 1, 1, "unexpected-token"),
    ("a:\n  - b\n", 2, 3, "unexpected-token"),
    (": 1\n", 1, 1, "unexpected-token"),
    ("a : 1\n", 1, 1, "unexpected-token"),
    ("a:\n  b : 1\n", 2, 3, "unexpected-token"),
    ("a[1]:\n  -  x: 1\n", 2, 5, "unexpected-token"),
    ("a[1]:\n  - b: 1\n    c : 2\n", 3, 5, "unexpected-token"),
    ("a\n", 1, 2, "unexpected-token"),
    ("a:\n  b\n", 2, 4, "unexpected-token"),
    ("a[1]:\n  - b: 1\n    c\n", 3, 6, "unexpected-token"),
    ("a: 1\na: 2\n", 2, 1, "unexpected-token"),
    ("a:\n  b: 1\n  b: 2\n", 3, 3, "unexpected-token"),  # was 1
    ("a[1]:\n  - b: 1\n    b: 2\n", 3, 5, "unexpected-token"),  # was 1
    ('"a" 1\n', 1, 4, "unexpected-token"),
    ('a:\n  "b" 1\n', 2, 6, "unexpected-token"),
    ('a[1]:\n  - "b" 1\n', 2, 8, "unexpected-token"),
    ("a:1\n", 1, 3, "unexpected-token"),
    ("a:\n  b:1\n", 2, 5, "unexpected-token"),
    ("a[1]:\n  - b:1\n", 2, 7, "unexpected-token"),
    ("a[x]:\n", 1, 3, "unexpected-token"),
    ("a:\n  b[x]:\n", 2, 5, "unexpected-token"),
    ("a[1]:\n  - [x]:\n", 2, 6, "unexpected-token"),
    ("a[" + _DIGITS + "]:\n", 1, 3, "unexpected-token"),  # was 1
    ("a:\n  b[" + _DIGITS + "]:\n", 2, 5, "unexpected-token"),  # was 3
    ("a[1]x\n", 1, 5, "unexpected-token"),
    ("a:\n  b[1]x\n", 2, 7, "unexpected-token"),
    ("a[1]:\n  - [1]x\n", 2, 8, "unexpected-token"),
    ("a[1]{\n", 1, 5, "unexpected-token"),
    ("a[1]{x\n", 1, 6, "unexpected-token"),
    ("a[1]{x,\n", 1, 7, "unexpected-token"),
    ('a[1]{"x"\n', 1, 8, "unexpected-token"),
    ("b:\n  a[1]{x\n", 2, 8, "unexpected-token"),  # was 10
    ("a[1]:\n  - [1]{x,\n", 2, 10, "unexpected-token"),  # was 14
    ("a[1]{}:\n", 1, 6, "unexpected-token"),
    ("t[1]{x, y}:\n  1,2\n", 1, 8, "unexpected-token"),
    ("a:\n  t[1]{x, y}:\n    1,2\n", 2, 10, "unexpected-token"),  # was 12
    ("a[1]:\n  - [1]{x, y}:\n      1,2\n", 2, 11, "unexpected-token"),  # was 15
    ('a[1]{"x"y}:\n', 1, 9, "unexpected-token"),
    ('b:\n  a[1]{"x"y}:\n', 2, 11, "unexpected-token"),  # was 13
    ("a[1]{x,x}:\n  1,2\n", 1, 5, "unexpected-token"),
    ("b:\n  a[1]{x,x}:\n    1,2\n", 2, 7, "unexpected-token"),  # was 9
    ("a[1]:\n  - k[1]{x,x}:\n      1,2\n", 2, 9, "unexpected-token"),  # was 13
    ("a[1]{x}\n", 1, 7, "unexpected-token"),
    ("a[1]{x}:x\n", 1, 9, "unexpected-token"),
    ("b:\n  a[1]{x}:x\n", 2, 11, "unexpected-token"),
    ("a[1]{x}:\n   1\n", 2, 4, "bad-indent"),
    ("a[1]{x}:\n  1\n  2\n", 3, 3, "count-mismatch"),
    ("a[1]{x,y}:\n  1\n", 2, 3, "arity-mismatch"),
    ("b:\n  a[1]{x,y}:\n    1,2,3\n", 3, 5, "arity-mismatch"),
    ("a[2]{x}:\n  1\n", 1, 1, "count-mismatch"),
    ("b:\n  a[2]{x}:\n    1\n", 2, 3, "count-mismatch"),
    ("a[1]:\n  - [2]{x}:\n      1\n", 2, 5, "count-mismatch"),
    ("a[1]:\n   - 1\n", 2, 4, "bad-indent"),
    ("a[1]:\n  - 1\n  - 2\n", 3, 3, "count-mismatch"),
    ("a[2]:\n  - 1\n", 1, 1, "count-mismatch"),
    ("a[1]:\n  - b[2]:\n      - 1\n", 2, 5, "count-mismatch"),
    ('a[1]{x,y}:\n  "p"q,1\n', 2, 6, "unexpected-token"),
    ("a[1]{x,y}:\n  1, 2\n", 2, 5, "unexpected-token"),
    ("a[1]{x,y}:\n  1,\n", 2, 5, "unexpected-token"),
    ('b: "x"y\n', 1, 7, "unexpected-token"),
    ('a:\n  b: "x"y\n', 2, 9, "unexpected-token"),  # was 11
    ('a[1]:\n  - k: "x"y\n', 2, 11, "unexpected-token"),  # was 15
    ("a:  x\n", 1, 4, "unexpected-token"),
    ("b:\n  a:  x\n", 2, 6, "unexpected-token"),  # was 8
    ("a[1]:\n  -  x\n", 2, 5, "unexpected-token"),  # was 7
    ("a: 1e999\n", 1, 4, "unexpected-token"),  # was 1
    ("a:\n  b: 1e999\n", 2, 6, "unexpected-token"),  # was 3
    ("a[1]:\n  - -1e999\n", 2, 5, "unexpected-token"),  # was 3
    ("a[1]{x}:\n  1e999\n", 2, 3, "unexpected-token"),
    ("a[1]{x,y}:\n  1,1e999\n", 2, 5, "unexpected-token"),  # was 3
    ("a: " + _DIGITS + "\n", 1, 4, "unexpected-token"),  # was 1
    ('b: "x\\\n', 1, 6, "bad-escape"),
    ('b: "\\u12"\n', 1, 5, "bad-escape"),
    ('b: "x\\q"\n', 1, 6, "bad-escape"),
    ('a:\n  b: "x\\q"\n', 2, 8, "bad-escape"),  # was 10
    ('a[1]:\n  - "x\\q"\n', 2, 7, "bad-escape"),  # was 9
    ('"a\\q": 1\n', 1, 3, "bad-escape"),
    ('a:\n  "b\\q": 1\n', 2, 5, "bad-escape"),
    ('a[1]{"x\\q"}:\n', 1, 8, "bad-escape"),
    ('b:\n  a[1]{"x\\q"}:\n', 2, 10, "bad-escape"),  # was 12
    ('a[1]{x}:\n  "\\q"\n', 2, 4, "bad-escape"),
    ('k: "\\ud83d"\n', 1, 5, "bad-escape"),  # a lone surrogate, high
    ('k: "x\\uDE00"\n', 1, 6, "bad-escape"),  # and low
    ('"\\uD83D": 1\n', 1, 2, "bad-escape"),
    ('"a\\udc00": 1\n', 1, 3, "bad-escape"),
    ('k: "\\ud83d\\ud83d"\n', 1, 5, "bad-escape"),  # high, then not a low
    ('k: "\\ude00\\ud83d"\n', 1, 5, "bad-escape"),  # low before high
    ('a[1]{"x\\ud83d"}:\n', 1, 8, "bad-escape"),
    ("k: \ud83d\n", 1, 4, "unexpected-token"),  # a raw lone surrogate, high
    ("a:\n  b: x\udc00y\n", 2, 7, "unexpected-token"),  # and low
    ('"\ud83d": 1\n', 1, 2, "unexpected-token"),  # in a key
    ("a[1]:\n  - \ud83d\ude00\n", 2, 5, "unexpected-token"),  # a pair of raw ones
    ("a[2]:\n  - 1\nb: \udc00\n", 3, 4, "unexpected-token"),  # up front, as a tab
    ('b: "x\n', 1, 5, "unexpected-token"),
    ('a:\n  b: "x\n', 2, 7, "unexpected-token"),  # was 9
    ('a[1]:\n  - "x\n', 2, 6, "unexpected-token"),  # was 8
]


@pytest.mark.parametrize("text, line, column, kind", POSITIONED,
                         ids=[repr(text[:24]) for text, *_ in POSITIONED])
def test_error_positions(text, line, column, kind):
    e = _err(text)
    assert (e.line, e.column, e.kind) == (line, column, kind), e


def test_nesting_past_the_recursion_limit_is_an_error_at_the_line_reached():
    depth = sys.getrecursionlimit()
    text = "".join(" " * (2 * i) + "a:\n" for i in range(depth)) + " " * (2 * depth) + "k: 1\n"
    e = _err(text)
    assert (e.kind, e.message) == ("unexpected-token", "nesting too deep")
    assert 1 < e.line <= depth and e.column == 2 * (e.line - 1) + 1


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


@pytest.mark.parametrize("toon, json_text", [
    ('k: "\\ud83d\\ude00"\n', '{"k": "\\ud83d\\ude00"}'),
    ('"\\uD83D\\uDE00": 1\n', '{"\\uD83D\\uDE00": 1}'),
    ('k: "a\\udbff\\udfffb\\ud7ff\\ue000"\n', '{"k": "a\\udbff\\udfffb\\ud7ff\\ue000"}'),
])
def test_a_surrogate_pair_escape_is_one_character_as_in_json(toon, json_text):
    root = parse_toon(toon).root
    assert root == parse_json(json_text)
    assert toon_to_json(toon).encode("utf-8")  # a sound value: it encodes


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
