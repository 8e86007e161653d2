"""Incremental byte-level recognizer for well-formed JSON object documents.

Mirrors the response_format="json_object" guarantee: the document is one
JSON object, syntactically valid, with unique keys per object (so accepted
output always survives strict parsing).  ASCII content only; nesting and
key length are bounded.
"""

from __future__ import annotations

import math

MAX_DEPTH = 16
MAX_KEY = 64

_WS = frozenset((0x20, 0x09, 0x0A, 0x0D))
_HEX = frozenset(b"0123456789abcdefABCDEF")
# The character each escape after a backslash stands for in a key.
_UNESCAPE = {0x22: '"', 0x5C: "\\", 0x2F: "/", 0x62: "\b", 0x66: "\f",
             0x6E: "\n", 0x72: "\r", 0x74: "\t"}
# Byte classes of the run declarations (see ``run``).
_TEXT = frozenset(range(0x20, 0x7F)) - frozenset(b'"\\')  # no escape pending

_EMPTY = frozenset()

# Numeral DFA of RFC 8259 as a table: state -> byte -> state.  "" is the
# start, m(minus) z(zero,ACC) i(int,ACC) d(dot) f(frac,ACC) e s x(exp,ACC);
# any byte without an entry ends the number.
_DIGITS = b"0123456789"
_DIGIT_BYTES = frozenset(_DIGITS)
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
    #   ks         inside a key string (text, esc, uleft); while uleft hex
    #              digits of a \u escape remain, esc holds their value so far
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


_WS_STATES = frozenset(("k", "k1", "col", "v", "v1", "e", "end"))


def run(state):
    """``(byte_class, budget)`` such that every string of at most ``budget``
    bytes from ``byte_class`` is accepted from ``state``, or None.  Key text
    stops one short of MAX_KEY, where a taken key is refused."""
    micro = state[1]
    tag = micro[0]
    if tag == "ks" or tag == "s":
        if micro[-1] or micro[-2]:  # an escape is pending
            return None
        return (_TEXT, MAX_KEY - 1 - len(micro[1]) if tag == "ks" else math.inf)
    if tag == "num":
        # digits extend an integer, a fraction or an exponent
        return (_DIGIT_BYTES, math.inf) if micro[1] in ("i", "f", "x") else None
    if tag in _WS_STATES:
        return (_WS, math.inf)
    return None


def _key_text(stack, text):
    """State inside a key string with ``text`` read, or None when the text is
    longer than MAX_KEY, or MAX_KEY long and taken: no byte could end it."""
    if len(text) >= MAX_KEY and (len(text) > MAX_KEY or text in stack[-1][1]):
        return None
    return (stack, ("ks", text, 0, 0))


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
            return (stack, ("ks", "", 0, 0))
        if tag == "k1" and b == 0x7D:
            return _close(stack, b)
        return None

    if tag == "ks":
        # the key text is kept decoded, so the duplicate check compares keys
        # as a parser reads them; a \u escape counts as one character
        text, esc, uleft = micro[1], micro[2], micro[3]
        if uleft:
            if b in _HEX:
                esc = esc * 16 + int(chr(b), 16)
                if uleft > 1:
                    return (stack, ("ks", text, esc, uleft - 1))
                return _key_text(stack, text + chr(esc))
            return None
        if esc:
            if b == 0x75:
                return (stack, ("ks", text, 0, 4))
            ch = _UNESCAPE.get(b)
            return None if ch is None else _key_text(stack, text + ch)
        if b == 0x22:
            top = stack[-1]
            if text in top[1]:
                return None
            stack = stack[:-1] + (("o", top[1] | {text}),)
            return (stack, ("col",))
        if b == 0x5C:
            return (stack, ("ks", text, 1, 0)) if len(text) < MAX_KEY else None
        if 0x20 <= b <= 0x7E:
            return _key_text(stack, text + chr(b))
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
        if b == 0x74:  # 't'
            return (stack, ("lit", "true", 1))
        if b == 0x66:  # 'f'
            return (stack, ("lit", "false", 1))
        if b == 0x6E:  # 'n'
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
            return (stack, ("s", 0, 0)) if b in _UNESCAPE else None
        if b == 0x22:
            s2, m2 = _after_value(stack)
            return (s2, m2)
        if b == 0x5C:
            return (stack, ("s", 1, 0))
        return (stack, ("s", 0, 0)) if 0x20 <= b <= 0x7E else None

    if tag == "lit":
        word, pos = micro[1], micro[2]
        if pos < len(word):
            if chr(b) == word[pos]:
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
