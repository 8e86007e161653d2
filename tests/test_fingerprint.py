"""The language of both byte automata against its committed fingerprint."""

import json

from fingerprint import TABLE, documents, fingerprint
from toonbench.mask import init_state, json_machine, toon_machine


def test_the_language_matches_its_fingerprint():
    """A change of language fails here by (mode, document).  Where it is
    meant, ``python tests/compare_trees.py PARENT_TREE`` shows the first
    states that moved, and ``python tests/fingerprint.py`` writes the new
    table."""
    table = json.loads(TABLE.read_text())
    digests = fingerprint()
    assert sorted(digests) == sorted(table)
    assert [k for k in table if digests[k] != table[k]] == []


def test_the_depth_documents_reach_the_depth_bound():
    """Each depth document is accepted, and its walk holds MAX_DEPTH frames
    at its deepest, so the fingerprint covers the automata's depth checks."""
    machines = {"toon": toon_machine, "json": json_machine}
    for key, _, data in documents():
        mode, name = key.split("/")
        if not name.startswith("depth-"):
            continue
        m = machines[mode]
        state, deepest = init_state(mode).machine, 0
        for b in data:
            state = m.step(state, b)
            deepest = max(deepest, len(state[0]))
        assert m.accepting(state) and deepest == m.MAX_DEPTH, key
