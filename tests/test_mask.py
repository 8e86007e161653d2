"""Grammar automata, token masks, and constrained generation."""

import gc
import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

import toonbench.mask.engine as engine
from toonbench.mask import (DeadEndError, RejectError, UnsupportedSchemaError,
                            Vocabulary, advance, allowed_mask,
                            build_toy_vocabulary, constrained_generate,
                            init_state, is_accepting, load_vocabulary,
                            save_vocabulary)
from toonbench.mask import json_machine, toon_machine
from toonbench.mask.engine import advance_bytes, step_byte
from toonbench.schemas import (ArrayType, IntType, ObjectType, StrType,
                               validate)
from toonbench.toon import _NUM_RE, encode_toon, parse_toon
from toonbench.values import JsonParseError, emit_canonical_json, parse_json


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


# -- states and stepping -----------------------------------------------------


def test_init_modes(case_by_name):
    init_state("toon")
    init_state("json")
    init_state("toon", case_by_name["order"].schema)
    with pytest.raises(UnsupportedSchemaError):
        init_state("json", case_by_name["order"].schema)
    with pytest.raises(ValueError):
        init_state("yaml")


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


def _numeral_dfa_accepts(machine, data: bytes) -> bool:
    st = ""
    for b in data:
        st = machine._num_step(st, b)
        if st is None:  # the JSON table has no dead state
            return False
    return st in machine._NUM_ACC


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
            assert (_numeral_dfa_accepts(toon_machine, data)
                    == bool(_NUM_RE.match(text))), text
            assert _numeral_dfa_accepts(json_machine, data) == _json_number(text), text


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
    cache = engine._caches[fresh]
    assert {mode: set(masks) for mode, masks in cache.items()} == seen
    st = init_state("toon", cases[0].schema)
    assert allowed_mask(st, fresh) is allowed_mask(st, fresh)


def test_mask_cache_is_capped(cases, vocab, monkeypatch):
    monkeypatch.setattr(engine, "_MASK_CACHE_SIZE", 8)
    fresh = Vocabulary(vocab.tokens)
    sizes = []
    _force_gold_documents(cases, fresh, monkeypatch, lambda state: sizes.append(
        max(len(masks) for masks in engine._caches[fresh].values())))
    assert max(sizes) == 8
    st = init_state("toon")  # the first state masked, evicted long since
    assert st.machine not in engine._caches[fresh]["toon"]
    assert allowed_mask(st, fresh).allowed == brute_force_mask(st, fresh)
    assert all(len(masks) <= 8 for masks in engine._caches[fresh].values())


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


def test_deep_schema_rejected_at_init():
    schema = ObjectType(fields=(("leaf", IntType()),))
    for _ in range(20):
        schema = ObjectType(fields=(("wrap", schema),))
    with pytest.raises(UnsupportedSchemaError):
        init_state("toon", schema)
