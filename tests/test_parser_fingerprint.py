"""What parse_toon returns and reports, against its committed fingerprint."""

import json

from parser_fingerprint import TABLE, fingerprint


def test_the_parser_matches_its_fingerprint():
    """A change of what ``parse_toon`` returns or reports fails here by
    document.  Where it is meant, ``python tests/parser_fingerprint.py``
    writes the new table."""
    table = json.loads(TABLE.read_text())
    digests = fingerprint()
    assert sorted(digests) == sorted(table)
    assert [k for k in table if digests[k] != table[k]] == []
