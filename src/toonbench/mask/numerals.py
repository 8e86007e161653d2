"""Numeral grammars of both byte automata, as DFA tables.

A table maps a state to a map from byte to next state; a byte without an
entry ends the numeral, which is whole only in an ACCEPTING state.  ``""``
is the start, then m(minus) z(zero) i(integer) d(dot) f(fraction) e(exponent
mark) s(exponent sign) x(exponent digits).

- ``JSON`` is RFC 8259: a leading zero stands alone.  ``INT`` is its rows
  for the start and the INTEGER states (the prefixes of an integer), kept
  within them: it lexes IntType's ``-?(0|[1-9][0-9]*)`` in the TOON automaton.
- ``TOON`` is ``toon._NUM_RE``: the same table, but a leading zero starts an
  integer like any other digit, so z is never entered.
"""

from __future__ import annotations

DIGITS = frozenset(b"0123456789")

JSON = {st: {b: nxt for bs, nxt in row for b in bs} for st, row in {
    "": ((b"-", "m"), (b"0", "z"), (b"123456789", "i")),
    "m": ((b"0", "z"), (b"123456789", "i")),
    "z": ((b".", "d"), (b"eE", "e")),
    "i": ((DIGITS, "i"), (b".", "d"), (b"eE", "e")),
    "d": ((DIGITS, "f"),),
    "f": ((DIGITS, "f"), (b"eE", "e")),
    "e": ((b"+-", "s"), (DIGITS, "x")),
    "s": ((DIGITS, "x"),),
    "x": ((DIGITS, "x"),),
}.items()}

TOON = {**JSON,
        "": {0x2D: "m", **dict.fromkeys(DIGITS, "i")},
        "m": dict.fromkeys(DIGITS, "i")}

ACCEPTING = frozenset("zifx")
INTEGER = frozenset("mzi")

INT = {st: {b: nxt for b, nxt in JSON[st].items() if nxt in INTEGER}
       for st in ("", *INTEGER)}
