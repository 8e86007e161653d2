"""Shared fixtures: the built-in cases, the shipped toy vocabulary, and a
deterministic random-Value generator used by round-trip and walk tests."""

from __future__ import annotations

import random
import string

import pytest

from toonbench.schemas import builtin_cases
from toonbench.mask import load_vocabulary
from toonbench.mask.keys import MAX_KEY
from importlib import resources


@pytest.fixture(scope="session")
def cases():
    return builtin_cases()


@pytest.fixture(scope="session")
def case_by_name(cases):
    return {c.name: c for c in cases}


@pytest.fixture(scope="session")
def vocab():
    with resources.as_file(resources.files("toonbench") / "fixtures"
                           / "toy_vocab.txt") as p:
        return load_vocabulary(p)


_KEY_ALPHABET = string.ascii_lowercase + "_"
_STR_ALPHABET = (string.ascii_letters + string.digits +
                 " ,:[]{}-\"\\.\t\n" + "éπ")


def random_scalar(rng: random.Random):
    pick = rng.randrange(6)
    if pick == 0:
        return None
    if pick == 1:
        return rng.random() < 0.5
    if pick == 2:
        return rng.randint(-10**6, 10**6)
    if pick == 3:
        return rng.choice([0.0, -1.5, 2.0, 3.14159, 1e-3, 6.02e23,
                           rng.uniform(-1e6, 1e6)])
    n = rng.randrange(0, 12)
    return "".join(rng.choice(_STR_ALPHABET) for _ in range(n))


def random_value(rng: random.Random, depth: int):
    """Random Value tree; depth counts container nesting levels remaining."""
    if depth <= 0:
        return random_scalar(rng)
    pick = rng.randrange(10)
    if pick < 4:
        return random_scalar(rng)
    if pick < 7:
        keys = {"".join(rng.choice(_KEY_ALPHABET)
                        for _ in range(rng.randrange(1, 8)))
                for _ in range(rng.randrange(0, 5))}
        return {k: random_value(rng, depth - 1) for k in sorted(keys)}
    if rng.random() < 0.3:  # sometimes uniform, to exercise tabular layout
        headers = sorted({"".join(rng.choice(_KEY_ALPHABET) for _ in range(3))
                          for _ in range(rng.randrange(1, 4))})
        return [{h: random_scalar(rng) for h in headers}
                for _ in range(rng.randrange(1, 5))]
    return [random_value(rng, depth - 1) for _ in range(rng.randrange(0, 5))]


def random_document(rng: random.Random, depth: int = 5) -> dict:
    """Random object-rooted Value as TOON documents require."""
    keys = {"".join(rng.choice(_KEY_ALPHABET)
                    for _ in range(rng.randrange(1, 8)))
            for _ in range(rng.randrange(1, 6))}
    return {k: random_value(rng, depth - 1) for k in sorted(keys)}


def long_key_documents() -> list:
    """Key-text states at the bound: full-length keys (bare, quoted with an
    escape, tabular header names), each followed by a sibling that shares all
    but its last character, and list items as long as a key and longer."""
    n = MAX_KEY
    full, near = "k" * n, "k" * (n - 1) + "j"
    quoted = 'q "' + "q" * (n - 3)
    row = {full: 1, near: 2}
    return [{full: 1, near: {quoted: "v", quoted[:-1] + "j": 2}},
            {"a" * 50: [{"b" * (n - 3): 1, "c": 2}], "a" * (n - 5) + "\\": "t"},
            {"rows": [row, row], "items": ["i" * n, "i" * (n + 3), "i, " * 30, {"a": 1}]}]
