"""Grammar automata, token masks, and constrained generation."""

import gc
import itertools
import random
import re
import sys
from collections import Counter
from typing import Iterable

import pytest
from conftest import long_key_documents, random_document
from hypothesis import assume, given, settings, strategies as st

import toonbench.mask.engine as engine
from toonbench.mask import (DeadEndError, RejectError, UnsupportedSchemaError,
                            Vocabulary, advance, allowed_mask,
                            build_toy_vocabulary, constrained_generate,
                            init_state, is_accepting, load_vocabulary,
                            save_vocabulary)
from toonbench.mask import json_machine, keys, numerals, toon_machine
from toonbench.mask.engine import advance_bytes, step_byte
from toonbench.schemas import (ArrayType, BoolType, FloatType, IntType, ObjectType,
                               StrType, validate)
from toonbench.toon import _NUM_RE, ToonError, encode_toon, parse_toon
from toonbench.values import (DuplicateKeyError, JsonParseError, emit_canonical_json,
                              parse_json)


def gold_texts(cases):
    for c in cases:
        yield c, encode_toon(c.gold), emit_canonical_json(c.gold)


# -- vocabulary --------------------------------------------------------------


def test_vocab_save_load_round_trip(tmp_path, vocab):
    p = tmp_path / "vocab.txt"
    save_vocabulary(vocab, p)
    again = load_vocabulary(p)
    assert again.tokens == vocab.tokens


def test_vocab_rejects_sparse_ids(tmp_path):
    p = tmp_path / "vocab.txt"
    p.write_text("0\t41\n2\t42\n")
    with pytest.raises(ValueError):
        load_vocabulary(p)


def test_vocab_rejects_empty_tokens():
    with pytest.raises(ValueError):
        Vocabulary([b"a", b""])


def test_build_toy_vocabulary_is_deterministic(cases):
    corpus = [encode_toon(c.gold) for c in cases]
    v1 = build_toy_vocabulary(corpus)
    v2 = build_toy_vocabulary(corpus)
    assert v1.tokens == v2.tokens
    assert v1.tokens[:256] == [bytes([b]) for b in range(256)]
    assert all(2 <= len(t) <= 6 for t in v1.tokens[256:])


def test_shipped_vocab_matches_gold_corpus(cases, vocab):
    corpus = [encode_toon(c.gold) for c in cases]
    corpus += [emit_canonical_json(c.gold) for c in cases]
    assert build_toy_vocabulary(corpus).tokens == vocab.tokens


def reference_toy_vocabulary(corpus: Iterable[str], merges: int = 200,
                             max_len: int = 6) -> Vocabulary:
    """256 single-byte tokens plus the most frequent multi-byte substrings
    of the corpus, for tractable brute-force testing."""
    counts: Counter = Counter()
    for text in corpus:
        data = text.encode("utf-8")
        for n in range(2, max_len + 1):
            for i in range(len(data) - n + 1):
                counts[data[i:i + n]] += 1
    # deterministic: by descending count, then by the bytes themselves
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    tokens = [bytes([b]) for b in range(256)]
    for tok, cnt in ranked:
        if len(tokens) >= 256 + merges:
            break
        if cnt < 2:
            break
        tokens.append(tok)
    return Vocabulary(tokens)


def _random_corpus(seed: int, docs: int) -> list:
    rng = random.Random(seed)
    values = [random_document(rng, 3) for _ in range(docs)]
    return [encode_toon(d) for d in values] + [emit_canonical_json(d) for d in values]


def _assert_builds_like_reference(corpus, merges, max_len):
    want = reference_toy_vocabulary(corpus, merges=merges, max_len=max_len).tokens
    assert build_toy_vocabulary(corpus, merges=merges, max_len=max_len).tokens == want
    return want


_MERGES = [-3, 0, 1, 200, 2000, 10**6]  # the last is more than any corpus here holds
_MAX_LENS = [0, 1, 2, 6, 10]


@pytest.mark.parametrize("merges", _MERGES)
@pytest.mark.parametrize("max_len", _MAX_LENS)
def test_toy_vocabulary_matches_the_reference_on_the_gold_corpus(cases, merges, max_len):
    corpus = [encode_toon(c.gold) for c in cases]
    corpus += [emit_canonical_json(c.gold) for c in cases]
    _assert_builds_like_reference(corpus, merges, max_len)


@pytest.mark.parametrize("merges", _MERGES)
@pytest.mark.parametrize("max_len", _MAX_LENS)
def test_toy_vocabulary_matches_the_reference_on_random_corpora(merges, max_len):
    corpus = _random_corpus(3, 40)
    tokens = _assert_builds_like_reference(corpus, merges, max_len)
    if merges >= 2000 and max_len >= 2:
        # multi-byte characters ("é", "π") became tokens of their own
        assert "é".encode() in tokens and "π".encode() in tokens


def test_toy_vocabulary_matches_the_reference_at_30k_merges():
    corpus = _random_corpus(11, 150)
    tokens = _assert_builds_like_reference(corpus, 30_000, 10)
    assert len(tokens) == 256 + 30_000


@pytest.mark.parametrize("corpus", [[], [""], ["", "", ""], ["a"], ["ab", "ab"]])
def test_toy_vocabulary_matches_the_reference_on_degenerate_corpora(corpus):
    for merges in _MERGES:
        for max_len in _MAX_LENS:
            _assert_builds_like_reference(corpus, merges, max_len)


@settings(max_examples=200, deadline=None)
@given(corpus=st.lists(st.text(alphabet="abc", max_size=30), max_size=6),
       merges=st.sampled_from(_MERGES), max_len=st.sampled_from(_MAX_LENS))
def test_toy_vocabulary_matches_the_reference_on_tied_overlapping_texts(corpus, merges,
                                                                        max_len):
    """Three letters force count ties and self-overlapping substrings such
    as ``aaaa``."""
    _assert_builds_like_reference(corpus, merges, max_len)


# -- states and stepping -----------------------------------------------------


def test_init_modes(case_by_name):
    init_state("toon")
    init_state("json")
    init_state("toon", case_by_name["order"].schema)
    with pytest.raises(UnsupportedSchemaError):
        init_state("json", case_by_name["order"].schema)
    with pytest.raises(ValueError):
        init_state("yaml")


@pytest.mark.parametrize("schema", [ArrayType(element=IntType()), IntType(), StrType()])
def test_a_schema_whose_root_is_not_an_object_is_refused(schema):
    with pytest.raises(UnsupportedSchemaError, match="object-typed schema root"):
        init_state("toon", schema)


def test_gold_documents_accepted(cases):
    for c, toon_text, json_text in gold_texts(cases):
        for schema in (None, c.schema):
            st = advance_bytes(init_state("toon", schema), toon_text.encode())
            assert is_accepting(st), (c.name, schema is not None)
        st = advance_bytes(init_state("json"), json_text.encode())
        assert is_accepting(st), c.name


def test_reject_reports_byte_offset(vocab):
    st = init_state("toon")
    with pytest.raises(RejectError) as ei:
        advance_bytes(st, b"a:x")  # missing space after the colon
    assert ei.value.byte_offset == 2


def test_non_ascii_bytes_rejected(case_by_name):
    # U+00B2 is a Unicode digit; it must not slip into an int position
    st = advance_bytes(init_state("toon", case_by_name["order"].schema),
                       b"id: ")
    assert step_byte(st, 0xB2) is None
    assert step_byte(st, ord("1")) is not None


def test_count_must_match_rows(case_by_name):
    schema = case_by_name["users"].schema
    prefix = b"users[1]{id,name,email,role}:\n  1,a,b,c\n"
    st = advance_bytes(init_state("toon", schema), prefix)
    assert is_accepting(st)
    # a second row is one too many: no legal way to start it
    assert step_byte(advance_bytes(init_state("toon", schema), prefix),
                     ord(" ")) is None
    # with [2] declared, the document is not accepting after one row
    st = advance_bytes(init_state("toon", schema),
                       b"users[2]{id,name,email,role}:\n  1,a,b,c\n")
    assert not is_accepting(st)


def test_schema_pins_first_key(case_by_name):
    st = init_state("toon", case_by_name["order"].schema)
    legal = {bytes([b]) for b in range(256) if step_byte(st, b) is not None}
    assert legal == {b"i"}  # the order schema starts with "id"


def test_schema_pins_key_order(case_by_name):
    schema = case_by_name["order"].schema
    with pytest.raises(RejectError):
        advance_bytes(init_state("toon", schema), b"customer")


def test_unconstrained_duplicate_key_rejected():
    with pytest.raises(RejectError):
        advance_bytes(init_state("toon"), b"a: 1\na:")


def test_json_mode_checks_well_formedness():
    ok = advance_bytes(init_state("json"), b'{"a": [1, 2], "b": null}')
    assert is_accepting(ok)
    with pytest.raises(RejectError):
        advance_bytes(init_state("json"), b'{"a": 1, "a":')
    with pytest.raises(RejectError):
        advance_bytes(init_state("json"), b"[1, 2]")  # root must be an object
    assert not is_accepting(advance_bytes(init_state("json"), b'{"a": {'))


def _legal_bytes(state) -> set:
    return {b for b in range(256) if step_byte(state, b) is not None}


def test_toon_duplicate_quoted_key_refused_at_its_closing_quote():
    # taking the closing quote would leave ('keyend', '0'), with no legal
    # byte: ':' and '[' both refuse a repeated key
    st = advance_bytes(init_state("toon"), b'"0": 1\n"0')
    assert step_byte(st, ord('"')) is None
    assert step_byte(st, ord("1")) is not None  # "01" is still free
    # the same for a quoted tabular header name that repeats an earlier one
    st = advance_bytes(init_state("toon"), b'a[1]{x,"x')
    assert step_byte(st, ord('"')) is None
    assert step_byte(st, ord("y")) is not None


# How a quoted key opens and how its line ends, per mode.
_KEY_OPEN = {"toon": b'"', "json": b'{"'}
_KEY_CLOSE = {"toon": b'": 1\n', "json": b'": 1}'}


@pytest.mark.parametrize("mode", ["toon", "json"])
def test_backslash_refused_in_a_full_quoted_key(mode):
    # with MAX_KEY characters read, no escape fits any more
    st = advance_bytes(init_state(mode), _KEY_OPEN[mode] + b"a" * keys.MAX_KEY)
    assert _legal_bytes(st) == {ord('"')}
    st = advance_bytes(init_state(mode), _KEY_OPEN[mode] + b"a" * (keys.MAX_KEY - 1))
    assert is_accepting(advance_bytes(st, b"\\n" + _KEY_CLOSE[mode]))


@pytest.mark.parametrize("doc", [
    {"a": ["xy" * 40, {"b": 1}]},
    {"a": ["x y, " * 14, {"b": 1}]},  # quoted: it holds commas
    {"a": ["k" * (toon_machine.MAX_KEY - 1) + "\\" * 4]},  # escapes past MAX_KEY
])
def test_toon_list_item_scalar_longer_than_a_key_is_accepted(doc):
    text = encode_toon(doc)
    assert parse_toon(text).root == doc
    assert is_accepting(advance_bytes(init_state("toon"), text.encode()))


@pytest.mark.parametrize("token", [
    b"k" * (toon_machine.MAX_KEY + 1),
    b'"' + b"k" * (toon_machine.MAX_KEY + 1) + b'"',
])
def test_toon_list_item_that_cannot_be_a_key_ends_only_as_a_scalar(token):
    """A list item's first token past MAX_KEY characters can no longer be a
    key: ':' is refused and NL ends the item."""
    st = advance_bytes(init_state("toon"), b"a[1]:\n  - " + token)
    assert step_byte(st, ord(":")) is None and step_byte(st, ord("[")) is None
    text = b"a[1]:\n  - " + token + b"\n"
    assert is_accepting(advance_bytes(init_state("toon"), text))
    assert isinstance(parse_toon(text.decode()).root["a"][0], str)


def test_toon_list_item_key_of_max_length_still_opens_an_object():
    for key in (b"k" * toon_machine.MAX_KEY, b'"' + b"k" * toon_machine.MAX_KEY + b'"',
                b'"\\u0041"'):  # a \u escape decodes into the key
        text = b"a[1]:\n  - " + key + b": 1\n    b: 2\n"
        assert is_accepting(advance_bytes(init_state("toon"), text))
        assert parse_toon(text.decode()).root["a"][0]["b"] == 2


_TAGS = ObjectType((("tags", ArrayType(StrType())),))


@pytest.mark.parametrize("schema, doc", [
    (None, b"a[1]:\n  - :x: 1\n"),  # an empty key before the first ':'
    (_TAGS, b"tags[2]:\n  - a: b\n  - :x\n"),  # an object item, then an empty key
    (_TAGS, b"tags[1]:\n  - a: b\n"),  # an object where a string is owed
    (_TAGS, b"tags[1]:\n  - a[2\n"),  # an array header with no count
    (_TAGS, b"tags[1]:\n  - :x\n"),  # an empty key
    (_TAGS, b"tags[1]:\n  - [\n"),  # an array header where a string is owed
])
def test_toon_list_item_the_parser_splits_at_a_colon_is_refused(schema, doc):
    """The parser reads a bare list item that holds ':' or '[' as a key and
    what follows it, so the automaton refuses what would not parse back as
    the scalar it took."""
    try:
        root = parse_toon(doc.decode()).root
    except ToonError:
        pass
    else:
        assert schema is not None and validate(root, schema)
    with pytest.raises(RejectError):
        advance_bytes(init_state("toon", schema), doc)


@pytest.mark.parametrize("schema, doc", [
    (None, {"a": [":x"]}),
    (_TAGS, {"tags": ["a: b", ":x", "a[2", "x]", "[", "- a", "a,b"]}),
])
def test_toon_list_item_strings_with_a_colon_are_accepted_quoted(schema, doc):
    text = encode_toon(doc)
    assert parse_toon(text).root == doc
    assert is_accepting(advance_bytes(init_state("toon", schema), text.encode()))
    # a key's value may still hold them bare
    assert is_accepting(advance_bytes(init_state("toon"), b"k: a: b[2\n"))


@pytest.mark.parametrize("mode", ["toon", "json"])
def test_unicode_escape_counts_toward_the_key_length(mode):
    key = b"a" * keys.MAX_KEY
    with pytest.raises(RejectError):
        advance_bytes(init_state(mode), _KEY_OPEN[mode] + key + b"\\u0041\\u0042")
    st = advance_bytes(init_state(mode), _KEY_OPEN[mode] + key)
    assert _legal_bytes(st) == {ord('"')}
    ok = advance_bytes(init_state(mode), _KEY_OPEN[mode] + key[1:] + b"\\u0041" + _KEY_CLOSE[mode])
    assert is_accepting(ok)


def _parse(mode, data: bytes):
    """The value the mode's parser reads from ``data``, or None where it
    refuses it."""
    try:
        if mode == "toon":
            return parse_toon(data.decode()).root
        return parse_json(data.decode())
    except (ToonError, JsonParseError, DuplicateKeyError):
        return None


@pytest.mark.parametrize("mode, doc, names", [
    ("json", b'{"\\u0041": 1, "\\u0042": 2}', ["A", "B"]),
    ("json", b'{"n": 1, "\\n": 2}', ["n", "\n"]),
    ("json", b'{"?": 1, "\\u003F": 2}', None),
    ("json", b'{"A": 1, "\\u0041": 2}', None),
    ("json", b'{"/": 1, "\\/": 2}', None),
    ("toon", b'"\\u0041": 1\n', ["A"]),
    ("toon", b'"\\u0041": 1\n"\\u0042": 2\n', ["A", "B"]),
    ("toon", b'n: 1\n"\\n": 2\n', ["n", "\n"]),
    ("toon", b'"?": 1\n"\\u003F": 2\n', None),
    ("toon", b'A: 1\n"\\u0041": 2\n', None),
    ("toon", b'"/": 1\n"\\/": 2\n', None),
    ("toon", b'a[1]{x,"\\u0078"}:\n  1,2\n', None),
], ids=lambda v: ",".join(v) if isinstance(v, list) else None)
def test_key_escapes_are_decoded_for_the_duplicate_check(mode, doc, names):
    """The automaton takes keys as the parser reads them (``names``) and
    refuses, at its closing quote, a key the parser reads as a repeat
    (``names`` None)."""
    root = _parse(mode, doc)
    if names is None:
        assert root is None
        with pytest.raises(RejectError) as ei:
            advance_bytes(init_state(mode), doc)
        assert ei.value.byte_offset == doc.rindex(b'"')
    else:
        assert list(root) == names
        assert is_accepting(advance_bytes(init_state(mode), doc))


def _accepts(state, data: bytes) -> bool:
    try:
        return is_accepting(advance_bytes(state, data))
    except RejectError:
        return False


# An escape ``\\{e}`` in a key and in a value, of each kind of quoted string.
ESCAPE_DOCS = [
    ("toon", [b'"\\{e}": 1\n', b'k: "\\{e}"\n', b'a[1]{{"\\{e}"}}:\n  1\n',
              b'a[1]:\n  - "\\{e}": 1\n', b'a[1]:\n  - "\\{e}"\n']),
    ("json", [b'{{"\\{e}": 1}}', b'{{"k": "\\{e}"}}']),
]


@pytest.mark.parametrize("mode, docs", ESCAPE_DOCS)
def test_escapes_are_read_as_the_parser_reads_them(mode, docs):
    """Every escape, in keys and in values: the automaton accepts the
    document exactly when the parser does, ``\\u`` only with 4 hex digits
    and no lone surrogate."""
    escapes = [chr(b) for b in range(0x20, 0x7F)] + ["u004", "u0041", "u00e9", "uD83D",
                                                     "udc00", "uD7FF", "ue000"]
    for doc in docs:
        for e in escapes:
            data = doc.decode().format(e=e).encode()
            assert _accepts(init_state(mode), data) == (_parse(mode, data) is not None), data


@pytest.mark.parametrize("mode, docs", ESCAPE_DOCS)
def test_surrogate_escapes_are_refused_at_their_second_hex_digit(mode, docs):
    """A surrogate escape, lone or in a pair that the parsers join, is
    refused at its second hex digit, where the escape is first known to be
    one; the digits before it, as in ``\\ud7ff``, leave a way on."""
    for doc in docs:
        for e in ("ud83d", "uD800", "udbff\\udc00", "uDC00", "udfff", "ud83d\\ude00"):
            data = doc.decode().format(e=e).encode()
            with pytest.raises(RejectError) as ei:
                advance_bytes(init_state(mode), data)
            assert ei.value.byte_offset == data.index(b"\\u") + 3, data


@pytest.mark.parametrize("mode, prefix", [
    ("toon", b"{k}: 1\n{p}"),
    ("toon", b'"{k}": 1\n"{p}'),
    ("toon", b"a[1]{{{k},{p}"),
    ("json", b'{{"{k}": 1, "{p}'),
])
def test_a_full_length_key_that_is_taken_is_refused_at_its_last_byte(mode, prefix):
    """At MAX_KEY characters a key can neither grow nor end if it is taken,
    so the byte that would make it so is refused."""
    key = "k" * toon_machine.MAX_KEY
    st = advance_bytes(init_state(mode), prefix.decode().format(k=key, p=key[:-1]).encode())
    assert step_byte(st, ord("k")) is None
    assert step_byte(st, ord("j")) is not None


def _numeral_dfa_accepts(table, data: bytes) -> bool:
    st = ""
    for b in data:
        st = table[st].get(b)
        if st is None:
            return False
    return st in numerals.ACCEPTING


def _json_number(text: str) -> bool:
    try:
        v = parse_json(text)
    except JsonParseError:
        return False
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def test_numeral_dfas_match_their_reference_grammars():
    """Every string of length <= 4 over the numeral alphabet: the TOON DFA
    accepts exactly what toon._NUM_RE matches, the JSON DFA exactly what
    parse_json reads as a number."""
    for n in range(5):
        for chars in itertools.product("-0123456789.eE+", repeat=n):
            text = "".join(chars)
            data = text.encode()
            assert (_numeral_dfa_accepts(numerals.TOON, data)
                    == bool(_NUM_RE.match(text))), text
            assert _numeral_dfa_accepts(numerals.JSON, data) == _json_number(text), text


_SCALAR_GRAMMARS = {
    IntType(): re.compile(r"-?(0|[1-9][0-9]{0,18})\Z"),
    FloatType(): _NUM_RE,
    BoolType(): re.compile(r"(true|false)\Z"),
}


def test_typed_scalars_match_their_reference_grammars():
    """``v: s`` under the schema ``{v: T}`` is accepted exactly when ``s``
    matches T's grammar, for every ``s`` of up to 4 bytes over the numeral
    and literal bytes, the literals themselves, and integers at and past
    MAX_INT_DIGITS."""
    texts = ["".join(chars) for n in range(5)
             for chars in itertools.product("-01.eE+tf", repeat=n)]
    texts += ["true", "false", "tru", "truee", "falsey", "True"]
    for digits in (18, 19, 20):
        texts += ["9" * digits, "-" + "9" * digits, "1" + "0" * (digits - 1), "0" * digits]
    for fs, grammar in _SCALAR_GRAMMARS.items():
        start = init_state("toon", ObjectType((("v", fs),)))
        for text in texts:
            assert (_accepts(start, f"v: {text}\n".encode())
                    == bool(grammar.match(text))), (fs, text)


# -- masks -------------------------------------------------------------------


def brute_force_mask(state, vocab):
    out = set()
    for tid in range(len(vocab)):
        try:
            advance(state, tid, vocab)
            out.add(tid)
        except RejectError:
            pass
    return frozenset(out)


def test_mask_matches_brute_force_along_gold_docs(cases, vocab):
    rng = random.Random(11)
    for c, toon_text, json_text in gold_texts(cases):
        for mode, schema, text in (("toon", c.schema, toon_text),
                                   ("toon", None, toon_text),
                                   ("json", None, json_text)):
            data = text.encode()
            cur = init_state(mode, schema)
            offsets = sorted(rng.sample(range(len(data) + 1),
                                        min(8, len(data) + 1)))
            pos = 0
            for off in offsets:
                cur = advance_bytes(cur, data[pos:off])
                pos = off
                mask = allowed_mask(cur, vocab)
                assert mask.allowed == brute_force_mask(cur, vocab), \
                    (c.name, mode, off)


def test_mask_accepting_mirrors_is_accepting(case_by_name, vocab):
    st = advance_bytes(init_state("toon"), b"a: 1\n")
    assert allowed_mask(st, vocab).accepting and is_accepting(st)
    st = advance_bytes(init_state("toon"), b"a: 1")
    # mid-line states accept via the simulated newline
    assert allowed_mask(st, vocab).accepting == is_accepting(st)


def test_tokenization_independence(cases, vocab):
    """Consuming a document token-by-token, for any greedy segmentation,
    lands in the same state as byte-by-byte consumption."""
    rng = random.Random(5)
    for c, toon_text, _ in gold_texts(cases):
        data = toon_text.encode()
        byte_state = init_state("toon", c.schema)
        states = [byte_state]
        for b in data:
            byte_state = step_byte(byte_state, b)
            states.append(byte_state)
        # random token segmentation via the trie
        pos = 0
        tok_state = states[0]
        while pos < len(data):
            candidates = [t for t in range(len(vocab))
                          if data.startswith(vocab.token_bytes(t), pos)]
            t = rng.choice(candidates)
            tok_state = advance(tok_state, t, vocab)
            pos += len(vocab.token_bytes(t))
            assert tok_state == states[pos]


def _reached_states(cases, docs, texts=()):
    """Every state reached along the gold documents and ``docs``, byte by
    byte, in toon, toon+schema and json mode, and along each ``(mode,
    text)`` of ``texts``; a document is followed up to its first refused
    byte (non-ASCII text)."""
    runs = [(mode, None, text) for mode, text in texts]
    for c, toon_text, json_text in gold_texts(cases):
        runs += [("toon", None, toon_text), ("toon", c.schema, toon_text),
                 ("json", None, json_text)]
    for d in docs:
        runs += [("toon", None, encode_toon(d)), ("json", None, emit_canonical_json(d))]
    states = set()
    for mode, schema, text in runs:
        st = init_state(mode, schema)
        states.add(st)
        for b in text.encode():
            st = step_byte(st, b)
            if st is None:
                break
            states.add(st)
    return states


def _run(state):
    return (toon_machine if state.mode == "toon" else json_machine).run(state.machine)


def test_run_declarations_are_inductive(cases):
    """A state that declares ``(C, k)``, k >= 1, takes every byte of C, and
    (for k > 1) lands in a state that declares a class holding C with a
    budget of at least k - 1: so every string of up to k bytes from C is
    accepted, which is what the mask's closures rely on."""
    rng = random.Random(41)
    docs = [random_document(rng, 3) for _ in range(30)] + long_key_documents()
    states = _reached_states(cases, docs)
    # bare schema list items, which hold no ':' or '['
    st = init_state("toon", _TAGS)
    for b in encode_toon({"tags": ["a b", "x,y", "a: b", "1"]}).encode():
        st = step_byte(st, b)
        states.add(st)
    declared = set()
    for st in states:
        run = _run(st)
        if run is None or run[1] < 1:
            continue
        byte_class, budget = run
        declared.add((st.mode, st.machine[-1][0]))
        for b in byte_class:
            nxt = step_byte(st, b)
            assert nxt is not None, (st, b)
            if budget > 1:
                after = _run(nxt)
                assert after is not None and after[0] >= byte_class, (st, b)
                assert after[1] >= budget - 1, (st, b)
    # every declaration was exercised
    assert {tag for mode, tag in declared if mode == "toon"} >= {"q", "key", "sb", "ib"}
    assert {tag for mode, tag in declared if mode == "json"} >= {
        "ks", "s", "num", "k", "k1", "col", "v", "v1", "e", "end"}


def _near_surrogate_texts():
    """``(mode, text)`` of each ESCAPE_DOCS document holding ``\\ud7ff`` or
    ``\\ue000``, the escapes on either side of the surrogates, and of each of
    their one-byte mutants that puts another hex digit in their place."""
    texts = set()
    for mode, docs in ESCAPE_DOCS:
        for doc, e in itertools.product(docs, ("ud7ff", "ue000")):
            for i, digit in itertools.product(range(1, 5), "0123456789abcdefABCDEF"):
                texts.add((mode, doc.decode().format(e=e[:i] + digit + e[i + 1:])))
    return sorted(texts)


def test_no_reached_state_is_a_dead_end(cases):
    """Every state reached along the gold, seeded random and long-key
    documents and the escapes next to the surrogates, and every one-byte
    successor of one, accepts or takes some byte: a mask is never empty
    where the document may not end."""
    rng = random.Random(29)
    docs = [random_document(rng, 3) for _ in range(15)] + long_key_documents()
    states = _reached_states(cases, docs, _near_surrogate_texts())
    states |= {nxt for st in states for b in range(256)
               if (nxt := step_byte(st, b)) is not None}
    # NL and printable bytes first: nearly every state takes one of them
    order = sorted(range(256), key=lambda b: b < 0x20 and b != 0x0A)
    for st in states:
        assert is_accepting(st) or any(step_byte(st, b) is not None for b in order), st


@pytest.fixture(scope="module")
def mid_vocab(cases):
    """V ~ 2256, tokens up to 10 bytes, from the gold documents, seeded
    random documents and the long-key documents."""
    rng = random.Random(8)
    docs = [c.gold for c in cases] + [random_document(rng, 3) for _ in range(60)]
    docs += long_key_documents() * 3
    corpus = [encode_toon(d) for d in docs] + [emit_canonical_json(d) for d in docs]
    return build_toy_vocabulary(corpus, merges=2000, max_len=10)


def test_mask_matches_brute_force_at_a_mid_size_vocabulary(cases, mid_vocab):
    """Sampled states, key-text states near MAX_KEY among them, where a
    run's budget falls below its closure's height: masks computed through a
    closure and by the plain walk both equal brute force."""
    rng = random.Random(17)
    docs = [random_document(rng, 3) for _ in range(10)] + long_key_documents()
    states = sorted(_reached_states(cases, docs), key=repr)
    near_bound = [st for st in states if _run(st) is not None and _run(st)[1] < 10]
    sample = rng.sample(states, 120) + rng.sample(near_bound, min(60, len(near_bound)))
    paths = set()
    for st in sample:
        mask = allowed_mask(st, mid_vocab)
        assert mask.allowed == brute_force_mask(st, mid_vocab), st
        run = _run(st)
        if run is not None:
            closure = engine._caches[mid_vocab].closures[run[0]]
            paths.add(run[1] >= closure.height)
    assert paths == {True, False}


_NESTED_ARRAYS = ObjectType((
    ("m", ArrayType(ArrayType(IntType()))),
    ("t", ArrayType(ArrayType(ObjectType((("a", IntType()), ("b", StrType())))))),
))


@pytest.mark.parametrize("schema, doc, fragment", [
    (_NESTED_ARRAYS, {"m": [[1, 2], [], [3]],
                      "t": [[{"a": 1, "b": "x y"}, {"a": -2, "b": "true"}], []]},
     b"  - [2]{a,b}:\n"),
    (None, {"r": [{"a b": 1, "c": "x"}, {"a b": 2, "c": "y"}]}, b'r[2]{"a b",c}:\n'),
], ids=["schema-array-items", "quoted-header-name"])
def test_mask_matches_brute_force_along_array_items_and_header_closers(mid_vocab, schema,
                                                                       doc, fragment):
    """A schema array item's '[' and an unconstrained tabular header's ':',
    each spelled by a literal state: the document is accepted, and the mask
    equals brute force at every state along it."""
    data = encode_toon(doc).encode()
    assert fragment in data
    _assert_masks_along(mid_vocab, schema, data)


def _assert_masks_along(vocab, schema, data: bytes):
    """``data`` is accepted in toon mode, and the mask equals brute force at
    every state along it."""
    st = init_state("toon", schema)
    for i in range(len(data) + 1):
        assert allowed_mask(st, vocab).allowed == brute_force_mask(st, vocab), data[:i]
        if i < len(data):
            st = step_byte(st, data[i])
            assert st is not None, data[:i + 1]
    assert is_accepting(st)


_ROW = ObjectType((("x,y", IntType()), ("z", BoolType())))


@pytest.mark.parametrize("schema, doc, bare", [
    (ObjectType((("a:b", IntType()),)), {"a:b": 1}, b"a:b: 1\n"),
    (ObjectType((("a b", ObjectType((("c", IntType()),))),)), {"a b": {"c": 1}},
     b"a b:\n  c: 1\n"),
    (ObjectType((("-x", ArrayType(IntType())),)), {"-x": [1, 2]}, b"-x[2]:\n  - 1\n  - 2\n"),
    (ObjectType((("", StrType()),)), {"": "v"}, b": v\n"),
    (ObjectType((("t", ArrayType(_ROW)),)), {"t": [{"x,y": 1, "z": True}]},
     b"t[1]{x,y,z}:\n  1,true\n"),
], ids=["colon", "space-object", "dash-array", "empty", "comma-header"])
def test_schema_names_are_spelled_as_the_encoder_quotes_them(mid_vocab, schema, doc, bare):
    """A schema field or header name that the encoder quotes: its document is
    accepted and parses and validates, the bare spelling is refused, and the
    mask equals brute force at every state along the document."""
    data = encode_toon(doc).encode()
    assert parse_toon(data.decode()).root == doc and validate(doc, schema) == []
    assert not _accepts(init_state("toon", schema), bare)
    _assert_masks_along(mid_vocab, schema, data)


@pytest.mark.parametrize("schema", [
    ObjectType((("a", IntType()), ("a", IntType()))),
    ObjectType((("l", ArrayType(ObjectType((("b", IntType()), ("b", StrType()))))),)),
    ObjectType((("é", IntType()),)),
    ObjectType((("o", ObjectType((("\x01", IntType()),))),)),
], ids=["repeated", "repeated-in-item", "non-ascii", "control-nested"])
def test_schemas_the_automaton_cannot_spell_are_refused_at_init(schema):
    """A repeated field name, which the parser refuses as a duplicate key,
    and a name whose encoding is not printable ASCII, which would leave the
    automaton no legal byte."""
    with pytest.raises(UnsupportedSchemaError):
        init_state("toon", schema)


def test_closures_take_tokens_longer_than_the_recursion_limit():
    long = b"a" * (sys.getrecursionlimit() + 10)
    vocab = Vocabulary([bytes([b]) for b in range(128)] + [long, long + b'"', b'"' + long])
    for prefix in (b'a: "', b"a: ", b'"', b"a"):
        st = advance_bytes(init_state("toon"), prefix)
        assert allowed_mask(st, vocab).allowed == brute_force_mask(st, vocab), prefix


def test_mask_ids_ascend_and_agree_with_the_set_view(cases, mid_vocab):
    rng = random.Random(23)
    states = sorted(_reached_states(cases, []), key=repr)
    for st in rng.sample(states, 20):
        mask = allowed_mask(st, mid_vocab)
        assert list(mask.ids) == sorted(set(mask.ids))
        assert mask.allowed == frozenset(mask.ids)
        assert [t for t in range(-1, len(mid_vocab) + 1) if t in mask] == list(mask.ids)


def test_mask_caches_die_with_their_vocabulary():
    """A mask cache lives as long as its vocabulary: dropped vocabularies
    leave no cache behind, and a new vocabulary (which may reuse a dropped
    one's id()) never sees a stale mask."""
    gc.collect()
    before = len(engine._caches)
    st0 = init_state("toon")
    for i in range(50):
        tokens = [bytes([0x61 + i % 26]), b" ", b'"', b"{"]
        vocab = Vocabulary(tokens[i % 4:] + tokens[:i % 4])  # legal ids move
        assert allowed_mask(st0, vocab).allowed == brute_force_mask(st0, vocab)
        del vocab
    gc.collect()
    assert len(engine._caches) <= before


def _force_gold_documents(cases, vocab, monkeypatch, after_mask):
    """Force the gold documents in toon, toon+schema and json mode, calling
    ``after_mask(state)`` after each mask ``constrained_generate`` takes."""
    real = engine.allowed_mask

    def traced(state, v):
        mask = real(state, v)
        after_mask(state)
        return mask

    monkeypatch.setattr(engine, "allowed_mask", traced)
    for c, toon_text, json_text in gold_texts(cases):
        for mode, schema, text in (("toon", None, toon_text),
                                   ("toon", c.schema, toon_text),
                                   ("json", None, json_text)):
            target = text.encode()
            out = constrained_generate(_greedy_gold_policy(target, vocab),
                                       vocab, init_state(mode, schema))
            assert out == target, (c.name, mode, schema is not None)


def test_mask_cache_holds_one_mask_per_grammar_state(cases, vocab, monkeypatch):
    fresh = Vocabulary(vocab.tokens)  # a vocabulary with its own, empty cache
    seen = {"toon": set(), "json": set()}
    _force_gold_documents(cases, fresh, monkeypatch,
                          lambda state: seen[state.mode].add(state.machine))
    cache = engine._caches[fresh].masks
    assert {mode: set(masks) for mode, masks in cache.items()} == seen
    st = init_state("toon", cases[0].schema)
    assert allowed_mask(st, fresh) is allowed_mask(st, fresh)


def test_mask_cache_is_capped(cases, vocab, monkeypatch):
    monkeypatch.setattr(engine, "_MASK_CACHE_SIZE", 8)
    fresh = Vocabulary(vocab.tokens)
    sizes = []
    _force_gold_documents(cases, fresh, monkeypatch, lambda state: sizes.append(
        [max(len(entries) for entries in level.values())
         for level in (engine._caches[fresh].masks, engine._caches[fresh].locals)]))
    assert [max(level) for level in zip(*sizes)] == [8, 8]  # masks, local states
    st = init_state("toon")  # the first state masked, evicted long since
    assert st.machine not in engine._caches[fresh].masks["toon"]
    assert allowed_mask(st, fresh).allowed == brute_force_mask(st, fresh)
    assert all(len(masks) <= 8 for masks in engine._caches[fresh].masks.values())
    assert all(len(entries) <= 8 for entries in engine._caches[fresh].locals.values())


# -- local states ------------------------------------------------------------


def _completed(vocab, pattern: str) -> list:
    """The texts that ``pattern``'s group matches at the start of tokens of
    ``vocab``, the most frequent first (at most four)."""
    found = Counter(m.group(1) for t in vocab.tokens
                    if (m := re.match(pattern, t.decode("latin-1"))))
    return sorted(found, key=lambda s: (-found[s], s))[:4]


def _local_sharing_prefixes(vocab) -> list:
    """``(mode, prefix)`` pairs whose states share local states: one key text
    or value position under different taken keys, in open objects and
    arrays at different depths, with key texts near MAX_KEY.  The taken keys
    are ones that tokens of ``vocab`` complete."""
    n = keys.MAX_KEY
    texts = ["", "a", "k" * (n - 12), "k" * (n - 11), "k" * (n - 10), "k" * (n - 1)]
    out = []
    for opener in ("{", '{"x":{', '{"x":[{', '{"y":{"x":{'):
        for text in texts:
            ends = [text + s for s in _completed(vocab, r'([a-z]*)"')]
            for taken in ([], ends[:1], ends[1:], ["k" * (n - 1), "k" * n], ["x"]):
                pairs = "".join(f'"{k}":1,' for k in taken)
                out.append(("json", opener + pairs + '"' + text))
        for taken in ([], ["x"], _completed(vocab, r'.*,"([a-z]+)"')):
            pairs = "".join(f'"{k}":1,' for k in taken)
            out += [("json", opener + pairs + '"z":'), ("json", opener + pairs + '"z":1')]
    for opener, indent in (("", ""), ("x:\n  y:\n    ", "    ")):
        for text in texts:
            ends = [text + s for s in _completed(vocab, r'([a-z]*)[:"]')]
            for taken in ([], ends[:1], ends[1:], ["k" * (n - 1), "k" * n], ["x", "y"]):
                lines = opener + "".join(f'"{k}": 1\n{indent}' for k in taken)
                out += [("toon", lines + text), ("toon", lines + '"' + text)]
                if not text:
                    out.append(("toon", lines + "z: 1"))
    return out


def test_states_that_share_a_local_state_have_their_own_masks(mid_vocab):
    """States that differ only in key text and taken keys share one local
    state, whose mask is computed once: each state's mask still equals brute
    force, where a token completes a taken key, asks about an outer object
    after closing inner ones, or takes a key to MAX_KEY or just short of it."""
    fresh = Vocabulary(mid_vocab.tokens)  # a vocabulary with its own, empty cache
    prefixes = _local_sharing_prefixes(fresh)
    random.Random(3).shuffle(prefixes)
    reach = max(map(len, fresh.tokens)) + 1
    masks = {}  # local state -> the distinct masks of its states
    for mode, prefix in prefixes:
        st = advance_bytes(init_state(mode), prefix.encode())
        mask = allowed_mask(st, fresh)
        assert mask.allowed == brute_force_mask(st, fresh), (mode, prefix)
        local, _ = (toon_machine if mode == "toon" else json_machine).split(
            st.machine, reach, [])
        masks.setdefault((mode, local), set()).add(mask.ids)
    stats = engine.cache_stats(fresh)
    assert stats["local_hits"] > 0
    assert stats["local_misses"] == stats["local_entries"] == len(masks)
    # some states with one local state have different masks: taken keys drop tokens
    assert any(len(ids) > 1 for (mode, _), ids in masks.items() if mode == "json")
    assert any(len(ids) > 1 for (mode, _), ids in masks.items() if mode == "toon")


def test_tokens_that_complete_two_keys_check_the_second_against_the_first():
    """A token that completes the key being typed and then another key of the
    same object is refused where the two are one key, however the first one's
    text began."""
    vocab = Vocabulary([bytes([b]) for b in range(128)] + [
        b'":1,"a"', b'":1,"ab"', b'b":1,"ab":', b'1,"a":2,"a"', b'},"x":', b'},"a"',
        b": 1\na:", b": 1\nab:", b'": 1\nab:', b"1\nx:", b": 1\n  b:"])
    prefixes = [("json", p) for p in ('{"a', '{"', '{"b":1,"a', '{"x":{"a', '{"x":{"',
                                      '{"x":{"y":', '{"a":{"y":', '{"x":')]
    prefixes += [("toon", p) for p in ("a", "ab", '"a', '"', "b: 1\na", "x:\n  a",
                                       "x:\n  y: ", "a: ", "y:\n  a")]
    for mode, prefix in prefixes:
        st = advance_bytes(init_state(mode), prefix.encode())
        assert allowed_mask(st, vocab).allowed == brute_force_mask(st, vocab), (mode, prefix)
    assert engine.cache_stats(vocab)["local_hits"] > 0


# -- constrained generation --------------------------------------------------


def _greedy_gold_policy(target: bytes, vocab):
    """Score longest target-prefix tokens highest, end-of-sequence when done."""
    V = len(vocab)

    def policy(i, state):
        del i, state
        return None  # replaced below; stateful closure instead

    progress = {"pos": 0}

    def policy(step, state):  # noqa: F811
        del step, state
        pos = progress["pos"]
        scores = [0.0] * (V + 1)
        if pos >= len(target):
            scores[V] = 100.0
            return scores
        best_len = 0
        for t in range(V):
            tb = vocab.token_bytes(t)
            if target.startswith(tb, pos):
                scores[t] = float(len(tb))
                best_len = max(best_len, len(tb))
        progress["pos"] = pos + best_len
        return scores

    return policy


def test_generate_reproduces_gold(cases, vocab):
    for c, toon_text, _ in gold_texts(cases):
        target = toon_text.encode()
        out = constrained_generate(_greedy_gold_policy(target, vocab), vocab,
                                   init_state("toon", c.schema))
        assert out == target, c.name


def test_generate_ties_break_to_lowest_token_id(vocab):
    st = init_state("toon")

    def flat(step, state):
        del step, state
        return [1.0] * (len(vocab) + 1)

    # all-equal scores: end-of-sequence wins as soon as the state accepts,
    # and before that the lowest legal token id is taken every step
    out = constrained_generate(flat, vocab, st, max_steps=200)
    st2 = init_state("toon")
    replay = bytearray()
    while not is_accepting(st2):
        tid = min(allowed_mask(st2, vocab).allowed)
        replay.extend(vocab.token_bytes(tid))
        st2 = advance(st2, tid, vocab)
    assert bytes(out) == bytes(replay)


def test_generate_ties_in_a_large_mask_go_to_the_lowest_id(mid_vocab, monkeypatch):
    """Scores of 0 or 1 over a mask of thousands of ids: the token taken is
    the lowest legal id among those scoring 1."""
    st = advance_bytes(init_state("toon"), b'a: "')
    ids = allowed_mask(st, mid_vocab).ids
    assert len(ids) > 1000
    rng = random.Random(5)
    scores = [float(rng.random() < 0.3) for _ in range(len(mid_vocab))] + [-1.0]
    taken = []

    class Stop(Exception):
        pass

    def policy(step, state):
        if step:
            raise Stop
        return scores

    real = engine.advance
    monkeypatch.setattr(engine, "advance",
                        lambda s, t, v: taken.append(t) or real(s, t, v))
    with pytest.raises(Stop):
        constrained_generate(policy, mid_vocab, st)
    assert taken == [min(t for t in ids if scores[t] == 1.0)]


def test_generate_output_always_parses(cases, vocab):
    rng = random.Random(99)
    V = len(vocab)
    bonus = []
    for t in range(V):
        tb = vocab.token_bytes(t)
        score = -0.2 * len(tb)
        if 0x0A in tb:
            score += 3.0
        if tb in (b"0", b'"'):
            score += 1.5
        bonus.append(score)

    def policy(step, state):
        del step, state
        scores = [rng.random() + bonus[t] for t in range(V)]
        scores.append(8.0)
        return scores

    for c in cases:
        for seed in range(3):
            rng.seed(seed * 1000 + len(c.name))
            out = constrained_generate(policy, vocab,
                                       init_state("toon", c.schema),
                                       max_steps=5000)
            value = parse_toon(out.decode("ascii")).root
            assert validate(value, c.schema) == [], c.name


def test_generate_json_mode_output_parses(vocab):
    rng = random.Random(3)
    V = len(vocab)
    bonus = []
    for t in range(V):
        tb = vocab.token_bytes(t)
        score = -0.2 * len(tb)
        if any(x in tb for x in (0x09, 0x0A, 0x0D, 0x20)):
            score -= 3.0
        if tb == b'"':
            score += 3.0
        if tb == b"}":
            score += 2.0
        bonus.append(score)

    def policy(step, state):
        del step, state
        scores = [rng.random() + bonus[t] for t in range(V)]
        scores.append(8.0)
        return scores

    for seed in range(5):
        rng.seed(seed)
        out = constrained_generate(policy, vocab, init_state("json"),
                                   max_steps=5000)
        parsed = parse_json(out.decode("ascii"))
        assert isinstance(parsed, dict)


def _random_policy(vocab, seed: int, quiet_steps: int):
    """Seeded random scores, nudged toward newlines, ']' and ',' so that
    documents stay short; end-of-sequence wins at the first accepting state
    from step ``quiet_steps`` on."""
    rng = random.Random(seed)
    nl_bonus = rng.uniform(0.5, 3.0)
    V = len(vocab)
    bonus = []
    for t in range(V):
        tb = vocab.token_bytes(t)
        score = -0.2 * len(tb) + {b"]": 1.5, b",": 1.0, b"1": 0.5}.get(tb, 0.0)
        if 0x0A in tb:
            score += nl_bonus
        bonus.append(score)

    def policy(step, state):
        del state
        scores = [rng.random() + bonus[t] for t in range(V)]
        scores.append(8.0 if step >= quiet_steps else -8.0)
        return scores

    return policy


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), quiet_steps=st.integers(0, 80),
       case_index=st.sampled_from([None, 0, 1, 2, 3]))
def test_mask_accepted_documents_parse_and_validate(cases, vocab, seed,
                                                    quiet_steps, case_index):
    schema = None if case_index is None else cases[case_index].schema
    try:
        out = constrained_generate(_random_policy(vocab, seed, quiet_steps), vocab,
                                   init_state("toon", schema), max_steps=400)
    except DeadEndError:
        assume(False)  # no accepted document to check
    value = parse_toon(out.decode("ascii")).root
    if schema is not None:
        assert validate(value, schema) == [], out


def test_generate_policy_arity_checked(vocab):
    with pytest.raises(ValueError):
        constrained_generate(lambda i, s: [0.0] * 3, vocab, init_state("toon"))


def test_generate_with_no_legal_token_at_a_non_accepting_state_is_a_dead_end():
    """A JSON document must open with '{', which this vocabulary lacks, so
    the first mask is empty and the start state does not accept."""
    vocab = Vocabulary([b"}", b"[", b'"', b" ", b"1"])
    with pytest.raises(DeadEndError, match="no legal continuation at byte offset 0 "
                                           r"\(non-accepting state\)"):
        constrained_generate(lambda i, s: [0.0] * (len(vocab) + 1), vocab,
                             init_state("json"))


def test_deep_schema_rejected_at_init():
    schema = ObjectType(fields=(("leaf", IntType()),))
    for _ in range(20):
        schema = ObjectType(fields=(("wrap", schema),))
    with pytest.raises(UnsupportedSchemaError):
        init_state("toon", schema)
