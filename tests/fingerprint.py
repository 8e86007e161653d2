"""The language fingerprint of both byte automata.

A fixed, seeded set of documents is stepped byte by byte: the gold documents
in toon, toon+schema and json mode; seeded random documents and the long-key
documents in toon and json mode; seeded payloads of each case's schema in
toon+schema mode; documents nested to the automata's depth bound in toon and
json mode; and a few one-byte mutants of each.  Every state reached,
up to a mutant's first refused byte, is recorded as its verdicts on all 256
bytes, ``accepting`` and ``run()``.  One digest per (mode, document) sums up
the records along the document and its mutants, so a change of language
shows up by document.  The records hold nothing of the states themselves, so
a change of state layout that keeps the language keeps every digest.

``test_fingerprint.py`` compares the digests with ``fingerprint.json``;
``python tests/fingerprint.py`` writes that table anew from the tree on
``sys.path``, and ``python tests/compare_trees.py`` prints the first states
where two trees differ.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from conftest import long_key_documents, random_document
from toonbench.mask import init_state, json_machine, toon_machine
from toonbench.schemas import builtin_cases
from toonbench.toon import encode_toon
from toonbench.values import emit_canonical_json

TABLE = Path(__file__).with_name("fingerprint.json")
SEED = 2026
RANDOM_DOCUMENTS = 30
PAYLOADS_PER_CASE = 10
MUTANTS = 4
_MUTANT_BYTES = bytes(range(0x20, 0x7F)) + b"\n"
_MACHINES = {"toon": toon_machine, "toon_schema": toon_machine, "json": json_machine}


def random_payload(rng: random.Random, schema):
    """A random value of ``schema``: every field present, arrays of 1 to 3
    elements."""
    kind = schema.kind
    if kind == "int":
        return rng.randint(-10**6, 10**6)
    if kind == "float":
        return rng.choice([0.0, -1.5, 3.14159, 6.02e23, rng.uniform(-1e6, 1e6)])
    if kind == "str":
        return "".join(rng.choice("ab ,:-\"\\1.") for _ in range(rng.randrange(0, 8)))
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "object":
        return {name: random_payload(rng, fs) for name, fs in schema.fields}
    return [random_payload(rng, schema.element) for _ in range(rng.randrange(1, 4))]


def _nest(value, wrap, times: int):
    for _ in range(times):
        value = wrap(value)
    return value


def depth_documents() -> list:
    """``(key, value)`` of documents whose deepest container is the
    MAX_DEPTH-th frame (the root object counted), so that their walks meet
    each automaton's depth checks.  TOON reaches the bound through nested
    objects, a list item's first key, a ``key[n]:`` header and an item's
    ``- [n]:``; JSON through nested objects and nested arrays."""
    d = toon_machine.MAX_DEPTH
    # the first key of each item opens one frame and its header another
    items = {"b": {"c": _nest([{"k": 1}, 1], lambda v: [{"a": v}], (d - 4) // 2)}}
    in_toon = [("objects", _nest({"k": 1}, lambda v: {"a": v}, d - 1)),
               ("item-key", items),
               ("header", _nest({"k": [1, "x"]}, lambda v: {"a": v}, d - 2)),
               ("item-array", {"a": _nest([1, "x"], lambda v: [v], d - 2)})]
    d = json_machine.MAX_DEPTH
    in_json = [("objects", _nest({"k": 1}, lambda v: {"a": v}, d - 1)),
               ("arrays", {"a": _nest([1], lambda v: [v], d - 2)})]
    return ([(f"toon/depth-{name}", v) for name, v in in_toon]
            + [(f"json/depth-{name}", v) for name, v in in_json])


def documents() -> list:
    """``(key, schema, data)`` per document; ``key`` is ``mode/name``, the
    mode one of toon, toon_schema and json."""
    cases = builtin_cases()
    docs = []
    for c in cases:
        toon_data = encode_toon(c.gold).encode()
        docs += [(f"toon/gold-{c.name}", None, toon_data),
                 (f"toon_schema/gold-{c.name}", c.schema, toon_data),
                 (f"json/gold-{c.name}", None, emit_canonical_json(c.gold).encode())]
    rng = random.Random(SEED)
    values = [(f"random-{i}", random_document(rng, 3)) for i in range(RANDOM_DOCUMENTS)]
    values += [(f"long-key-{i}", d) for i, d in enumerate(long_key_documents())]
    for name, value in values:
        docs += [(f"toon/{name}", None, encode_toon(value).encode()),
                 (f"json/{name}", None, emit_canonical_json(value).encode())]
    for c in cases:
        for i in range(PAYLOADS_PER_CASE):
            value = random_payload(rng, c.schema)
            docs.append((f"toon_schema/{c.name}-{i}", c.schema, encode_toon(value).encode()))
    for key, value in depth_documents():
        text = encode_toon(value) if key.startswith("toon/") else emit_canonical_json(value)
        docs.append((key, None, text.encode()))
    return docs


def mutants(key: str, data: bytes) -> list:
    """``data`` with one byte replaced, MUTANTS times, seeded by ``key``."""
    rng = random.Random(key)
    out = []
    for _ in range(MUTANTS):
        i = rng.randrange(len(data))
        out.append(data[:i] + bytes([rng.choice(_MUTANT_BYTES)]) + data[i + 1:])
    return out


def record(m, machine) -> bytes:
    """What the language says at a state of machine module ``m``: the verdict
    on each byte (256 bytes, 1 where it is taken), whether the document may
    end (1 byte), and the run declaration (``repr`` of its class as bytes and
    its budget, or of None)."""
    verdicts = bytes(m.step(machine, b) is not None for b in range(256))
    run = m.run(machine)
    if run is not None:
        run = (bytes(sorted(run[0])), run[1])
    return verdicts + bytes([m.accepting(machine)]) + repr(run).encode()


def walks():
    """``(key, data, records)`` for each document and each of its mutants:
    the records of the states along ``data``, its start included, up to its
    first refused byte."""
    memo = {}  # (machine module, state) -> record
    for key, schema, doc in documents():
        mode = key.split("/")[0]
        m = _MACHINES[mode]
        start = init_state("json" if mode == "json" else "toon", schema).machine
        for data in [doc] + mutants(key, doc):
            machine, records = start, []
            for b in data + b"\0":  # the last state's record, then stop
                rec = memo.get((m, machine))
                if rec is None:
                    rec = memo[m, machine] = record(m, machine)
                records.append(rec)
                machine = m.step(machine, b)
                if machine is None:
                    break
            yield key, data, records


def fingerprint() -> dict:
    """``key`` -> the digest of the records of its walks."""
    digests: dict = {}
    for key, _, records in walks():
        h = digests.setdefault(key, hashlib.sha256())
        for rec in records:
            h.update(len(rec).to_bytes(2, "big") + rec)
    return {key: h.hexdigest()[:16] for key, h in digests.items()}


if __name__ == "__main__":
    TABLE.write_text(json.dumps(fingerprint(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {TABLE}")
