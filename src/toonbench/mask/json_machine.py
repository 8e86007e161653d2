"""Incremental byte-level recognizer for well-formed JSON object documents.

Mirrors the response_format="json_object" guarantee: the document is one
JSON object, syntactically valid, with unique keys per object (so accepted
output always survives strict parsing).  ASCII content only; nesting and
key length are bounded.
"""

from __future__ import annotations

MAX_DEPTH = 16
MAX_KEY = 64

_WS = frozenset((0x20, 0x09, 0x0A, 0x0D))
_ESC = frozenset(b'"\\/bfnrt')
_HEX = frozenset(b"0123456789abcdefABCDEF")

_EMPTY = frozenset()

# Numeral DFA of RFC 8259 as a table: state -> byte -> state.  "" is the
# start, m(minus) z(zero,ACC) i(int,ACC) d(dot) f(frac,ACC) e s x(exp,ACC);
# any byte without an entry ends the number.
_DIGITS = b"0123456789"
_NUM = {st: {b: nxt for bs, nxt in row for b in bs} for st, row in {
    "": ((b"-", "m"), (b"0", "z"), (b"123456789", "i")),
    "m": ((b"0", "z"), (b"123456789", "i")),
    "z": ((b".", "d"), (b"eE", "e")),
    "i": ((_DIGITS, "i"), (b".", "d"), (b"eE", "e")),
    "d": ((_DIGITS, "f"),),
    "f": ((_DIGITS, "f"), (b"eE", "e")),
    "e": ((b"+-", "s"), (_DIGITS, "x")),
    "s": ((_DIGITS, "x"),),
    "x": ((_DIGITS, "x"),),
}.items()}
_NUM_ACC = frozenset("zifx")


def _num_step(st: str, b: int):
    return _NUM[st].get(b)


def initial():
    # micro tags:
    #   start      expect '{' (no leading whitespace)
    #   k / k1     expect key ('k1' also allows '}')
    #   ks         inside a key string (chars, esc, uleft)
    #   col        expect ':'
    #   v / v1     expect a value ('v1' also allows ']')
    #   s          inside a value string (esc, uleft)
    #   num        inside a number (dfa state)
    #   lit        inside true/false/null (word, pos)
    #   e          after a value, expect ',' or close
    #   end        document complete, whitespace only
    return ((), ("start",))


def accepting(state) -> bool:
    stack, micro = state
    return micro[0] == "end"


def _after_value(stack):
    if not stack:
        return stack, ("end",)
    return stack, ("e",)


def _close(stack, b):
    """Handle '}' or ']' closing the top frame; returns state or None."""
    if not stack:
        return None
    top = stack[-1]
    if b == 0x7D and top[0] == "o":
        return _after_value(stack[:-1])
    if b == 0x5D and top[0] == "a":
        return _after_value(stack[:-1])
    return None


def step(state, b: int):
    stack, micro = state
    tag = micro[0]
    c = chr(b) if b < 0x80 else None

    if tag == "start":
        if b == 0x7B:  # '{'
            return ((("o", _EMPTY),), ("k1",))
        return None

    if tag == "end":
        return (stack, micro) if b in _WS else None

    if tag in ("k", "k1"):
        if b in _WS:
            return (stack, micro)
        if b == 0x22:
            return (stack, ("ks", (), 0, 0))
        if tag == "k1" and b == 0x7D:
            return _close(stack, b)
        return None

    if tag == "ks":
        chars, esc, uleft = micro[1], micro[2], micro[3]
        if uleft:
            if b in _HEX:
                if uleft > 1:
                    return (stack, ("ks", chars, 0, uleft - 1))
                return (stack, ("ks", chars + ("?",), 0, 0))
            return None
        if esc:
            if b == 0x75:
                return (stack, ("ks", chars, 0, 4))
            if b in _ESC:
                if len(chars) >= MAX_KEY:
                    return None
                return (stack, ("ks", chars + (chr(b),), 0, 0))
            return None
        if b == 0x22:
            key = "".join(chars)
            top = stack[-1]
            if key in top[1]:
                return None
            stack = stack[:-1] + (("o", top[1] | {key}),)
            return (stack, ("col",))
        if b == 0x5C:
            return (stack, ("ks", chars, 1, 0))
        if 0x20 <= b <= 0x7E and len(chars) < MAX_KEY:
            return (stack, ("ks", chars + (c,), 0, 0))
        return None

    if tag == "col":
        if b in _WS:
            return (stack, micro)
        if b == 0x3A:  # ':'
            return (stack, ("v",))
        return None

    if tag in ("v", "v1"):
        if b in _WS:
            return (stack, micro)
        if tag == "v1" and b == 0x5D:
            return _close(stack, b)
        if b == 0x7B:
            if len(stack) >= MAX_DEPTH:
                return None
            return (stack + (("o", _EMPTY),), ("k1",))
        if b == 0x5B:
            if len(stack) >= MAX_DEPTH:
                return None
            return (stack + (("a",),), ("v1",))
        if b == 0x22:
            return (stack, ("s", 0, 0))
        if c == "t":
            return (stack, ("lit", "true", 1))
        if c == "f":
            return (stack, ("lit", "false", 1))
        if c == "n":
            return (stack, ("lit", "null", 1))
        st = _num_step("", b)
        return None if st is None else (stack, ("num", st))

    if tag == "s":
        esc, uleft = micro[1], micro[2]
        if uleft:
            if b in _HEX:
                return (stack, ("s", 0, uleft - 1)) if uleft > 1 else (stack, ("s", 0, 0))
            return None
        if esc:
            if b == 0x75:
                return (stack, ("s", 0, 4))
            return (stack, ("s", 0, 0)) if b in _ESC else None
        if b == 0x22:
            s2, m2 = _after_value(stack)
            return (s2, m2)
        if b == 0x5C:
            return (stack, ("s", 1, 0))
        return (stack, ("s", 0, 0)) if 0x20 <= b <= 0x7E else None

    if tag == "lit":
        word, pos = micro[1], micro[2]
        if pos < len(word):
            if c == word[pos]:
                if pos + 1 == len(word):
                    s2, m2 = _after_value(stack)
                    return (s2, m2)
                return (stack, ("lit", word, pos + 1))
            return None
        return None

    if tag == "num":
        st = micro[1]
        nxt = _num_step(st, b)
        if nxt is not None:
            return (stack, ("num", nxt))
        if st in _NUM_ACC:
            # number ends; re-dispatch the byte in post-value position
            s2, m2 = _after_value(stack)
            return step((s2, m2), b)
        return None

    if tag == "e":
        if b in _WS:
            return (stack, micro)
        if b == 0x2C:  # ','
            top = stack[-1]
            return (stack, ("k",)) if top[0] == "o" else (stack, ("v",))
        if b in (0x7D, 0x5D):
            return _close(stack, b)
        return None

    return None
