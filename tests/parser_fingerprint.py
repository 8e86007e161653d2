"""The behaviour fingerprint of ``parse_toon``.

A fixed, seeded set of TOON texts is parsed: the gold documents, the
reference example, seeded random documents and the long-key documents, each
with seeded one-character mutants (a character replaced by printable ASCII or
a newline) and with each ``[N]`` count one lower and one higher.  The outcome
of each parse is recorded: the canonical JSON of the root, or the error's
``(line, column, kind, message)``.  One digest per document sums up the
outcomes of the document and its mutants, so a change of what the parser
accepts, returns or reports shows up by document, and a change of its code
that keeps its behaviour keeps every digest.

``test_parser_fingerprint.py`` compares the digests with
``parser_fingerprint.json``; ``python tests/parser_fingerprint.py`` writes
that table anew from the tree on ``sys.path``.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from importlib import resources
from pathlib import Path

from conftest import long_key_documents, random_document
from toonbench.schemas import builtin_cases
from toonbench.toon import ToonError, encode_toon, parse_toon
from toonbench.values import emit_canonical_json

TABLE = Path(__file__).with_name("parser_fingerprint.json")
SEED = 2032
RANDOM_DOCUMENTS = 30
MUTANTS = 64
_MUTANT_CHARS = "".join(map(chr, range(0x20, 0x7F))) + "\n"
_COUNT_RE = re.compile(r"\[([0-9]+)\]")


def documents() -> list:
    """``(name, text)`` per document."""
    docs = [(f"gold-{c.name}", encode_toon(c.gold)) for c in builtin_cases()]
    docs.append(("reference-example", (resources.files("toonbench") / "fixtures"
                                       / "reference_example.toon").read_text(encoding="utf-8")))
    rng = random.Random(SEED)
    docs += [(f"random-{i}", encode_toon(random_document(rng, 4)))
             for i in range(RANDOM_DOCUMENTS)]
    docs += [(f"long-key-{i}", encode_toon(d)) for i, d in enumerate(long_key_documents())]
    return docs


def mutants(name: str, text: str) -> list:
    """``text`` with one character replaced, MUTANTS times, seeded by
    ``name``, then with each ``[N]`` count changed to N - 1 and to N + 1."""
    rng = random.Random(name)
    out = []
    for _ in range(MUTANTS):
        i = rng.randrange(len(text))
        out.append(text[:i] + rng.choice(_MUTANT_CHARS) + text[i + 1:])
    for m in _COUNT_RE.finditer(text):
        for n in (int(m.group(1)) - 1, int(m.group(1)) + 1):
            out.append(f"{text[:m.start()]}[{n}]{text[m.end():]}")
    return out


def outcome(text: str) -> str:
    """The canonical JSON of the parsed root, or the error's position, kind
    and message."""
    try:
        return emit_canonical_json(parse_toon(text).root)
    except ToonError as e:
        return repr((e.line, e.column, e.kind, e.message))


def fingerprint() -> dict:
    """Document name -> the digest of the outcomes of it and its mutants."""
    digests = {}
    for name, text in documents():
        h = hashlib.sha256()
        for t in [text] + mutants(name, text):
            rec = outcome(t).encode("utf-8")
            h.update(len(rec).to_bytes(4, "big") + rec)
        digests[name] = h.hexdigest()[:16]
    return digests


if __name__ == "__main__":
    TABLE.write_text(json.dumps(fingerprint(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {TABLE}")
