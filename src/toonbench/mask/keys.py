"""Quoted strings and key text, lexed one way for both byte automata.

An automaton's state inside a quoted string holds the lexer state ``lex``,
a pair ``(text, esc)``.  ``text`` is a key's text so far, decoded as its
parser reads it, or None in a value, whose text is not kept.  ``esc`` is 0
in plain text, 1 after a backslash, and ``-(8 * v + k)`` while ``k`` hex
digits of a ``\\u`` escape are owed, ``v`` being the value of those read,
in a key and in a value alike.  A surrogate escape (``\\uD800`` to
``\\uDFFF``) is refused at its second hex digit, also where a pair would
join into one character: the parsers refuse a lone surrogate, and the
automata take none.

A key holds at most MAX_KEY characters, an escape counting as one.  Whether
a key is taken is the caller's ``taken(stack, cont)``, asked only at a
closing quote and at MAX_KEY, where a taken key can neither grow nor end.

A mask is shared by the states that differ only in key text and taken keys
(see ``split`` in each automaton).  Such a local state holds key text as
``local_text`` and each open object's keys as a ``Taken``, which answers
"not taken" and writes the question down, to be asked of the real keys.
"""

from __future__ import annotations

import math

MAX_KEY = 64

PRINTABLE = frozenset(range(0x20, 0x7F))
TEXT = PRINTABLE - frozenset(b'"\\')  # quoted text, no escape pending
_HEX = {b: int(chr(b), 16) for b in b"0123456789abcdefABCDEF"}
KEY = ("", 0)  # the lexer state at a key's opening quote
VALUE = (None, 0)  # the lexer state at a value's opening quote
CLOSED = "closed"  # what ``quoted`` returns for a closing quote
# A character that no key holds: the automata take ASCII bytes only, and a
# \u escape stands for at most U+FFFF.
MARK = "\U0010ffff"


def budget(text) -> float:
    """Plain characters that ``text`` surely takes: up to one short of
    MAX_KEY, where a taken key is refused; any number in a value (None)."""
    return math.inf if text is None else MAX_KEY - 1 - len(text)


def run(text, esc):
    """A quoted string's run declaration: none while an escape is pending."""
    return None if esc else (TEXT, budget(text))


def _full(text, taken, stack, cont) -> bool:
    """Whether ``text``, not under MAX_KEY, may stay a key: at MAX_KEY, untaken."""
    return len(text) == MAX_KEY and text not in taken(stack, cont)


def grow(text, ch, taken, stack, cont):
    """``text + ch`` as key text, or None where it can no longer be a key."""
    text += ch
    return text if len(text) < MAX_KEY or _full(text, taken, stack, cont) else None


def quoted(lex, b, table, taken, stack, cont):
    """Byte ``b`` of a quoted string whose escapes are those of a parser's
    ``table`` (the character after a backslash -> the character it stands
    for) and ``\\u`` plus 4 hex digits, no surrogate: the next lexer state
    (``lex`` itself where it stays), CLOSED after the closing quote, or None
    where ``b`` is refused.  A key refuses a byte that would leave it no
    longer a key, its closing quote where it is taken, and a backslash once
    it is full."""
    text, esc = lex
    if esc == 0:
        if b in TEXT:
            if text is None:
                return lex
            ch = chr(b)
        elif b == 0x22:
            return CLOSED if text is None or text not in taken(stack, cont) else None
        elif b == 0x5C:
            return (text, 1) if text is None or len(text) < MAX_KEY else None
        else:
            return None
    elif esc == 1:
        if b == 0x75:
            return (text, -4)
        ch = table.get(chr(b))
        if ch is None:
            return None
        if text is None:
            return VALUE
    else:
        digit = _HEX.get(b)
        if digit is None:
            return None
        v, k = divmod(-esc, 8)
        v = 16 * v + digit
        if k == 3 and 0xD8 <= v < 0xE0:  # a surrogate, refused at its second digit
            return None
        if k > 1:
            return (text, -(8 * v + k - 1))
        if text is None:
            return VALUE
        ch = chr(v)
    text += ch  # grow(), inlined: a plain key byte costs this one call
    return (text, 0) if len(text) < MAX_KEY or _full(text, taken, stack, cont) else None


def local_text(text: str, reach: int) -> str:
    """Key text as a local state holds it: MARK characters, as many as
    ``text`` has but at least MAX_KEY - ``reach``.  A token adds fewer than
    ``reach`` characters, so it reaches MAX_KEY from both texts or from
    neither."""
    return MARK * max(len(text), MAX_KEY - reach)


def real(key: str, text) -> str:
    """A key completed from a local state, with its MARK characters read as
    the real key ``text``."""
    return text + key.lstrip(MARK) if key[:1] == MARK else key


class Taken(frozenset):
    """The keys of the open object at stack position ``frame`` of a local
    state: unknown, but for the ones a walk from that state adds.  Asked for
    another key, it answers no and appends ``(frame, key, self)`` to
    ``asked``, so that the question can be put to the real keys, together
    with the keys the walk had added before it."""

    __slots__ = ("frame", "asked")

    def __new__(cls, frame: int, asked: list, added=()):
        self = super().__new__(cls, added)
        self.frame, self.asked = frame, asked
        return self

    def __contains__(self, key) -> bool:
        if frozenset.__contains__(self, key):
            return True
        self.asked.append((self.frame, key, self))
        return False

    def __or__(self, other):
        return Taken(self.frame, self.asked, frozenset.__or__(self, other))
