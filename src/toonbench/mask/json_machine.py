"""Incremental byte-level recognizer for well-formed JSON object documents.

Mirrors the response_format="json_object" guarantee: the document is one
JSON object, syntactically valid, with unique keys per object (so accepted
output always survives strict parsing).  ASCII content only; nesting and
key length are bounded.
"""

from __future__ import annotations

import math
from json.decoder import BACKSLASH

from . import keys, numerals
from .keys import CLOSED

MAX_DEPTH = 16

_WS = frozenset((0x20, 0x09, 0x0A, 0x0D))

_EMPTY = frozenset()

def initial():
    # micro tags:
    #   start      expect '{' (no leading whitespace)
    #   k / k1     expect key ('k1' also allows '}')
    #   ks / s     inside a key or value string (lex), lexed by keys.quoted
    #   col        expect ':'
    #   v / v1     expect a value ('v1' also allows ']')
    #   num        inside a number (numerals.JSON state)
    #   lit        inside true/false/null (word, pos)
    #   e          after a value, expect ',' or close
    #   end        document complete, whitespace only
    return ((), ("start",))


def accepting(state) -> bool:
    stack, micro = state
    return micro[0] == "end"


_WS_STATES = frozenset(("k", "k1", "col", "v", "v1", "e", "end"))


def run(state):
    """``(byte_class, budget)`` such that every string of at most ``budget``
    bytes from ``byte_class`` is accepted from ``state``, or None.  Key text
    stops one short of MAX_KEY, where a taken key is refused."""
    micro = state[1]
    tag = micro[0]
    if tag == "ks" or tag == "s":
        return keys.run(*micro[1])
    if tag == "num":
        # digits extend an integer, a fraction or an exponent
        return (numerals.DIGITS, math.inf) if micro[1] in ("i", "f", "x") else None
    if tag in _WS_STATES:
        return (_WS, math.inf)
    return None


def split(state, reach: int, asked: list):
    """``(local, context)``.  The local state is ``state`` with the key text
    cut to its length class (``keys.local_text``) and the keys of each open
    object replaced by a ``keys.Taken`` that writes to ``asked``; every frame
    kind stays.  The context is ``(text, sets)``: the key text (None outside
    a key) and the keys of each frame, by stack position."""
    stack, micro = state
    local = tuple(("o", keys.Taken(i, asked)) if frame[0] == "o" else frame
                  for i, frame in enumerate(stack))
    sets = tuple(frame[1] if frame[0] == "o" else _EMPTY for frame in stack)
    text = None
    if micro[0] == "ks":
        text, esc = micro[1]
        micro = ("ks", (keys.local_text(text, reach), esc))
    return (local, micro), (text, sets)


def _taken(stack, cont):
    """The keys of the object being read, which its next key may not repeat."""
    return stack[-1][1]


# '{' and '[' push a frame and expect its first key or value; '}' and ']'
# close the top frame when it is of their kind; 't', 'f' and 'n' begin a word.
_OPEN = {0x7B: (("o", _EMPTY), ("k1",)), 0x5B: (("a",), ("v1",))}
_CLOSE = {0x7D: "o", 0x5D: "a"}
_WORDS = {0x74: "true", 0x66: "false", 0x6E: "null"}


def _after_value(stack):
    return (stack, ("e",) if stack else ("end",))


def step(state, b: int):
    stack, micro = state
    tag = micro[0]

    # strings first: most steps are inside one
    if tag == "ks" or tag == "s":
        lex = micro[1]
        nxt = keys.quoted(lex, b, BACKSLASH, _taken, stack, None)
        if nxt is not CLOSED:
            return None if nxt is None else (stack, micro if nxt is lex else (tag, nxt))
        if tag == "s":
            return _after_value(stack)
        return (stack[:-1] + (("o", stack[-1][1] | {lex[0]}),), ("col",))

    # then numbers and words, which take neither whitespace nor a close
    if tag == "num":
        st = micro[1]
        nxt = numerals.JSON[st].get(b)
        if nxt is not None:
            return (stack, ("num", nxt))
        if st in numerals.ACCEPTING:
            # number ends; re-dispatch the byte in post-value position
            return step(_after_value(stack), b)
        return None

    if tag == "lit":
        word, pos = micro[1], micro[2]
        if chr(b) != word[pos]:
            return None
        if pos + 1 == len(word):
            return _after_value(stack)
        return (stack, ("lit", word, pos + 1))

    if b in _WS and tag in _WS_STATES:
        return state

    if b in _CLOSE and tag in ("k1", "v1", "e"):  # after '{', '[' or a value
        return _after_value(stack[:-1]) if stack[-1][0] == _CLOSE[b] else None

    if tag == "start":
        frame, nxt = _OPEN[0x7B]
        return ((frame,), nxt) if b == 0x7B else None

    if tag in ("k", "k1"):
        return (stack, ("ks", keys.KEY)) if b == 0x22 else None

    if tag == "col":
        return (stack, ("v",)) if b == 0x3A else None  # ':'

    if tag in ("v", "v1"):
        if b in _OPEN:
            if len(stack) >= MAX_DEPTH:
                return None
            frame, nxt = _OPEN[b]
            return (stack + (frame,), nxt)
        if b == 0x22:
            return (stack, ("s", keys.VALUE))
        if b in _WORDS:
            return (stack, ("lit", _WORDS[b], 1))
        st = numerals.JSON[""].get(b)
        return None if st is None else (stack, ("num", st))

    if tag == "e" and b == 0x2C:  # ','
        return (stack, ("k",) if stack[-1][0] == "o" else ("v",))

    return None
