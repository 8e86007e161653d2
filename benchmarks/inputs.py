"""Seeded inputs: random documents, schema-conforming payloads, the
vocabulary recipe, and the repair-loop fault plan.

Every generator takes its seed (or a ``random.Random`` made from one) as an
argument, so the same seed always yields the same inputs.
"""

from __future__ import annotations

import random
import re
import string
from dataclasses import dataclass
from typing import Dict, List, Tuple

from toonbench.mask import build_toy_vocabulary
from toonbench.schemas import builtin_cases
from toonbench.toon import encode_toon
from toonbench.values import emit_canonical_json

# The alphabet of the test suite's random documents, non-ASCII letters
# included: both byte automata reject them today, and those rejections are
# counted as failures rather than filtered out.
KEY_ALPHABET = string.ascii_lowercase + "_"
STR_ALPHABET = (string.ascii_letters + string.digits +
                " ,:[]{}-\"\\.\t\n" + "éπ")
FLOATS = (0.0, -1.5, 2.0, 3.14159, 1e-3, 6.02e23)


def random_string(rng: random.Random) -> str:
    return "".join(rng.choice(STR_ALPHABET) for _ in range(rng.randrange(0, 12)))


def random_key(rng: random.Random) -> str:
    return "".join(rng.choice(KEY_ALPHABET) for _ in range(rng.randrange(1, 8)))


def random_float(rng: random.Random) -> float:
    return rng.choice(FLOATS + (rng.uniform(-1e6, 1e6),))


def random_scalar(rng: random.Random):
    pick = rng.randrange(6)
    if pick == 0:
        return None
    if pick == 1:
        return rng.random() < 0.5
    if pick == 2:
        return rng.randint(-10**6, 10**6)
    if pick == 3:
        return random_float(rng)
    return random_string(rng)


def random_value(rng: random.Random, depth: int):
    """Random value tree; ``depth`` counts container levels remaining."""
    if depth <= 0:
        return random_scalar(rng)
    pick = rng.randrange(10)
    if pick < 4:
        return random_scalar(rng)
    if pick < 7:
        keys = {random_key(rng) for _ in range(rng.randrange(0, 5))}
        return {k: random_value(rng, depth - 1) for k in sorted(keys)}
    if rng.random() < 0.3:  # uniform rows, so the tabular layout is exercised
        headers = sorted({"".join(rng.choice(KEY_ALPHABET) for _ in range(3))
                          for _ in range(rng.randrange(1, 4))})
        return [{h: random_scalar(rng) for h in headers}
                for _ in range(rng.randrange(1, 5))]
    return [random_value(rng, depth - 1) for _ in range(rng.randrange(0, 5))]


def random_document(rng: random.Random, depth: int) -> dict:
    """Random object-rooted value, as TOON documents require."""
    keys = {random_key(rng) for _ in range(rng.randrange(1, 6))}
    return {k: random_value(rng, depth - 1) for k in sorted(keys)}


def sized_document(rng: random.Random, depth: int, min_bytes: int,
                   max_bytes: int) -> dict:
    """Random document whose TOON encoding has ``min_bytes`` to
    ``max_bytes`` bytes: random top-level fields are added while it is
    shorter, and a field that would make it longer is drawn again."""
    doc: dict = {}
    size = 0
    while size < min_bytes:
        key = random_key(rng)
        if key in doc:
            continue
        grown = dict(sorted({**doc, key: random_value(rng, depth - 1)}.items()))
        grown_size = len(encode_toon(grown).encode("utf-8"))
        if grown_size <= max_bytes:
            doc, size = grown, grown_size
    return doc


def random_payload(rng: random.Random, schema):
    """Random value that conforms to ``schema``: every field present, every
    scalar of its declared type, arrays of 1 to 4 elements."""
    kind = schema.kind
    if kind == "int":
        return rng.randint(-10**6, 10**6)
    if kind == "float":
        return random_float(rng)
    if kind == "str":
        return random_string(rng)
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "object":
        return {name: random_payload(rng, fs) for name, fs in schema.fields}
    return [random_payload(rng, schema.element) for _ in range(rng.randrange(1, 5))]


# -- mask targets ------------------------------------------------------------

MODES = ("toon", "toon_schema", "json")


@dataclass(frozen=True)
class Target:
    """One document to force through the mask: its source value, the
    grammar mode and schema it is generated under, and its bytes."""

    mode: str  # one of MODES
    value: object
    schema: object  # a Schema in toon_schema mode, else None
    data: bytes


def make_target(mode: str, value, schema=None) -> Target:
    text = emit_canonical_json(value) if mode == "json" else encode_toon(value)
    return Target(mode, value, schema, text.encode("utf-8"))


def fresh_targets(seed: int, per_mode: int, depth: int, size: Tuple[int, int]
                  ) -> List[Target]:
    """``per_mode`` new documents in each mode: random documents of ``size``
    bytes (as TOON) encoded as TOON and as JSON, and random payloads of the
    four cases' schemas."""
    rng = random.Random(f"documents:{seed}")
    docs = [sized_document(rng, depth, *size) for _ in range(per_mode)]
    cases = builtin_cases()
    payloads = [(c.schema, random_payload(rng, c.schema))
                for c in (cases[i % len(cases)] for i in range(per_mode))]
    return ([make_target("toon", d) for d in docs]
            + [make_target("toon_schema", p, s) for s, p in payloads]
            + [make_target("json", d) for d in docs])


def gold_targets() -> List[Target]:
    """The four gold documents in each mode."""
    cases = builtin_cases()
    return ([make_target("toon", c.gold) for c in cases]
            + [make_target("toon_schema", c.gold, c.schema) for c in cases]
            + [make_target("json", c.gold) for c in cases])


# The vocabulary is a fixed model property, so its corpus seed does not
# follow --seed: every run of a mask workload uses the same V≈10k tokens.
VOCAB_CORPUS_SEED = "vocabulary-corpus"
VOCAB_CORPUS_DOCS = 150
VOCAB_MERGES = 10_000
VOCAB_MAX_LEN = 10


def vocabulary_corpus() -> List[str]:
    rng = random.Random(VOCAB_CORPUS_SEED)
    docs = [random_document(rng, 5) for _ in range(VOCAB_CORPUS_DOCS)]
    return [encode_toon(d) for d in docs] + [emit_canonical_json(d) for d in docs]


def build_vocabulary():
    return build_toy_vocabulary(vocabulary_corpus(), merges=VOCAB_MERGES,
                                max_len=VOCAB_MAX_LEN)


# -- repair-loop fault plan --------------------------------------------------

# Fault kinds the mock provider injects, with their per-attempt weights by
# answer format.  "ok" is the gold answer.
#
# This is an assumed stress mix, not measured model traffic: no per-format
# error rates are available to derive it from.  The weights are chosen so
# that, in every 480-cell sweep, every attempt outcome (success, decode,
# validation and mismatch errors, transport errors) occurs on every track,
# and about 9% of J/JSO cells use all four attempts and still fail.  The
# same weights apply to both answer formats, so a difference in speed between
# tracks comes from the program's parsing and checking, not from an assumed
# difference in model accuracy.  Prose is the one fault whose outcome differs
# by track: T extracts the fenced block, J and JSO cannot parse around it.
# The mix gives J and JSO ~2.0 attempts per cell (one-shot 45%, final 91%)
# and T ~1.65 (one-shot 59%, final 97%).
FAULT_WEIGHTS = {
    "toon": (("ok", 45), ("toon_count", 15), ("wrong_type", 12),
             ("changed_value", 12), ("prose", 14), ("api_error", 2)),
    "json": (("ok", 45), ("truncated", 15), ("wrong_type", 12),
             ("changed_value", 12), ("prose", 14), ("api_error", 2)),
}

# What the harness must make of each fault, by track.  Prose around a
# ```toon fence is extracted; prose around JSON is not valid JSON.
EXPECTED_OUTCOME = {
    "ok": "success",
    "toon_count": "decode_error",
    "truncated": "decode_error",
    "wrong_type": "validation_error",
    "changed_value": "mismatch",
    "api_error": "transport_error",
}


def expected_outcome(fault: str, track: str) -> str:
    if fault == "prose":
        return "success" if track == "T" else "decode_error"
    return EXPECTED_OUTCOME[fault]


def answer_format(track: str) -> str:
    return "toon" if track == "T" else "json"


def _scalar_paths(v, path=()):
    if isinstance(v, dict):
        for k, child in v.items():
            yield from _scalar_paths(child, path + (k,))
    elif isinstance(v, list):
        for i, child in enumerate(v):
            yield from _scalar_paths(child, path + (i,))
    else:
        yield path


def _replace(v, path, new):
    if not path:
        return new
    head, rest = path[0], path[1:]
    if isinstance(v, dict):
        return {k: (_replace(c, rest, new) if k == head else c) for k, c in v.items()}
    return [(_replace(c, rest, new) if i == head else c) for i, c in enumerate(v)]


def _get(v, path):
    for p in path:
        v = v[p]
    return v


def _wrong_type(x):
    return True if isinstance(x, str) else "n/a"


def _changed(x):
    if isinstance(x, str):
        return x + "x"
    if isinstance(x, int):
        return x + 1
    return x + 0.5


_COUNT_RE = re.compile(r"\[(\d+)\]")


def _answers(gold, fmt: str) -> Dict[str, List[str]]:
    """Every variant of every fault kind for one gold payload in one
    answer format."""
    def render(v):
        return emit_canonical_json(v) if fmt == "json" else encode_toon(v)

    def fenced(text):
        return text if fmt == "json" else "```toon\n" + text + "```\n"

    paths = list(_scalar_paths(gold))
    out = {
        "ok": [fenced(render(gold))],
        "wrong_type": [fenced(render(_replace(gold, p, _wrong_type(_get(gold, p)))))
                       for p in paths],
        "changed_value": [fenced(render(_replace(gold, p, _changed(_get(gold, p)))))
                          for p in paths],
    }
    text = render(gold)
    if fmt == "toon":
        out["prose"] = ["Here is the record you asked for.\n\n```toon\n" + text
                        + "```\n\nLet me know if anything should change.\n"]
        counts = []
        for m in _COUNT_RE.finditer(text):
            n = int(m.group(1))
            for wrong in (n - 1, n + 1):
                if wrong >= 0:
                    counts.append(text[:m.start(1)] + str(wrong) + text[m.end(1):])
        out["toon_count"] = [fenced(t) for t in counts]
    else:
        out["prose"] = ["Here is the JSON you asked for:\n```json\n" + text
                        + "\n```\n"]
        out["truncated"] = [text[:len(text) * k // 8] for k in range(1, 8)]
    return out


def answer_table() -> Dict[Tuple[str, str], Dict[str, List[str]]]:
    """(case, answer format) -> fault kind -> the mock's answer variants."""
    return {(c.name, fmt): _answers(c.gold, fmt)
            for c in builtin_cases() for fmt in ("toon", "json")}


Cell = Tuple[str, int, str, str]  # (model, run index, case, track)


def plan_sweep(rng: random.Random, config: dict, answers, max_repairs: int
               ) -> Dict[Cell, Tuple[Tuple[str, str], ...]]:
    """Cell -> ((fault kind, answer text), ...) for each attempt the cell
    will make: attempts stop at the first expected success or after
    1 + max_repairs."""
    plan = {}
    for model in config["models"]:
        for run in range(1, config["runs"] + 1):
            for case in config["cases"]:
                for track in config["tracks"]:
                    fmt = answer_format(track)
                    kinds, weights = zip(*FAULT_WEIGHTS[fmt])
                    attempts = []
                    for _ in range(1 + max_repairs):
                        fault = rng.choices(kinds, weights)[0]
                        variants = answers[(case, fmt)].get(fault, [""])
                        attempts.append((fault, rng.choice(variants)))
                        if expected_outcome(fault, track) == "success":
                            break
                    plan[(model, run, case, track)] = tuple(attempts)
    return plan
