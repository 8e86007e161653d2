"""The language of both byte automata against its committed fingerprint."""

import json

from fingerprint import TABLE, fingerprint


def test_the_language_matches_its_fingerprint():
    """A change of language fails here by (mode, document).  Where it is
    meant, ``python tests/compare_trees.py PARENT_TREE`` shows the first
    states that moved, and ``python tests/fingerprint.py`` writes the new
    table."""
    table = json.loads(TABLE.read_text())
    digests = fingerprint()
    assert sorted(digests) == sorted(table)
    assert [k for k in table if digests[k] != table[k]] == []
