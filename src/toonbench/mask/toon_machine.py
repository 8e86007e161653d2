"""Incremental byte-level recognizer for the TOON grammar.

States are nested tuples ``(stack, line)`` and therefore hashable;
``step`` returns a new state or ``None`` on rejection.  The recognized
language is a slight restriction of what :func:`toonbench.toon.parse_toon`
accepts (ASCII content, bounded identifiers/counts/nesting), so every byte
string accepted here parses.  Quoted strings and key text are lexed by
:mod:`.keys` with the parser's escapes, ``toon._ESCAPES``, so a key is
decoded (``\\uXXXX`` included) and compared as the parser reads it.

With a schema the machine additionally pins key names and order (schema
declaration order), array layouts, and scalar lexeme shapes, so accepted
documents also validate.

``stack`` holds one frame per open block, ``(tag, col, ...)``:

- ``("obj", col, keys)``: unconstrained object, the keys seen so far;
- ``("sobj", col, fields)``: schema object, the ``(name, type)`` fields still
  to come;
- ``("list", col, left, elem)``: list array with ``left`` items still owed,
  each of schema type ``elem``, or None for an unconstrained list;
- ``("table", col, left, cols)``: tabular array with ``left`` rows still
  owed; ``cols`` holds one schema type per column, or None for each column
  of an unconstrained table.

``line`` is the micro-state within the current line; its first element is a
tag and ``step`` hands the byte to that tag's handler in ``_HANDLERS``.  The
document starts at ``_START``, a line start that does not accept.

Numerals are lexed by one state, ``num``: IntType by ``numerals.INT``,
FloatType by ``numerals.TOON``.  Every bare value is lexed by ``sb``.  Fixed
text is spelled by ``lit``: a schema key and the ``: ``, ``:`` or ``[`` after
it, a schema array header's ``:`` or ``{names}:`` (names as the encoder's
``toon._encode_key`` writes them, quoted where it quotes), a BoolType value,
an unconstrained header's closing ``:`` and a schema array item's ``[``.
"""

from __future__ import annotations

import math

from .. import toon
from ..schemas import ArrayType, BoolType, FloatType, IntType, ObjectType, StrType
from ..toon import _ESCAPES
from . import keys, numerals
from .keys import CLOSED, MAX_KEY, PRINTABLE

MAX_DEPTH = 16
MAX_COUNT_DIGITS = 3
MAX_INT_DIGITS = 19

_EMPTY = frozenset()

SP = 0x20
NL = 0x0A

_KEY_START = frozenset(toon._KEY_START.encode())
_KEY_CHARS = frozenset(toon._KEY_CHARS.encode())
# Byte classes of the run declarations (see ``run``).
_CELL = PRINTABLE - frozenset(b",")  # bare cell text
_ITEM = PRINTABLE - frozenset(b":[")  # a list item's bare first token


def _scalar_schema(s) -> bool:
    return isinstance(s, (IntType, FloatType, StrType, BoolType))


def _tabular_schema(s) -> bool:
    return (isinstance(s, ObjectType) and len(s.fields) > 0
            and all(_scalar_schema(fs) for _, fs in s.fields))


# Literal-prefix tracking for bare strings under a StrType constraint: the
# finished lexeme must not read back as a number/bool/null.
_LIT_PREFIXES = frozenset(w[:i] for w in toon.LITERALS for i in range(1, len(w) + 1))


def _schema_depth(s) -> int:
    """The frames that a value of schema type ``s`` opens at most.  Raises
    ValueError for an object that repeats a field name, which the parser
    refuses, or has one whose encoding is not printable ASCII."""
    if isinstance(s, ObjectType):
        names = [name for name, _ in s.fields]
        if len(set(names)) < len(names):
            raise ValueError("schema object repeats a field name")
        for name in names:
            if not PRINTABLE.issuperset(map(ord, toon._encode_key(name))):
                raise ValueError(f"schema field name {name!r} is not printable ASCII")
        return 1 + max((_schema_depth(fs) for _, fs in s.fields), default=0)
    if isinstance(s, ArrayType):
        return 1 + _schema_depth(s.element)
    return 0


# Line states without fields, and continuations built once.
_START = ("ind", 0, "start")  # the first line start, where nothing is accepted
_IND0 = ("ind", 0)
_SP0 = ("sp",)  # after an unconstrained key's ':'
_ITEM0 = ("item0",)
_DASH = ("dash",)
_KEYEND = ("keyend",)  # after an object key: ':' or '['
_IQE = ("iqe",)  # after a list item's quoted first token
_IQV = ("sqe", None)  # after a quoted list item that cannot be a key
_LIST_ITEM = "-"  # the context of a schema list item's scalar


def initial(schema=None):
    if schema is None:
        stack = (("obj", 0, _EMPTY),)
    else:
        if not isinstance(schema, ObjectType):
            raise ValueError("toon documents require an object-typed schema root")
        if _schema_depth(schema) > MAX_DEPTH:
            raise ValueError(f"schema nesting exceeds the depth bound of {MAX_DEPTH}")
        stack = (("sobj", 0, schema.fields),)
    return (stack, _START)


def _poppable(frame) -> bool:
    """No schema field, item or row is still owed; an unconstrained object
    never owes one."""
    return frame[0] == "obj" or not frame[2]


def _max_content_col(stack) -> int:
    """Deepest column at which a content line is still legal: the column of
    the topmost frame that can take one (an unconstrained object, or a frame
    still owed lines); every frame above it is poppable."""
    for frame in reversed(stack):
        if frame[0] == "obj" or frame[2]:
            return frame[1]
    return -1


def accepting(state) -> bool:
    """At a line start after a whole line, or where a newline would end the
    current one, with no frame still owed a line."""
    if state[1][0] != "ind":
        state = step(state, NL)
    return (state is not None and state[1] == _IND0
            and all(_poppable(frame) for frame in state[0]))


def run(state):
    """``(byte_class, budget)`` such that every string of at most ``budget``
    bytes from ``byte_class`` is accepted from ``state``, or None.  Key text
    stops one short of MAX_KEY, where a taken key is refused; a list item's
    first token goes on as a scalar past MAX_KEY."""
    line = state[1]
    tag = line[0]
    if tag == "q":
        text, esc = line[2]
        return keys.run(None if line[1] == _IQE else text, esc)
    if tag == "key":
        return (_KEY_CHARS, keys.budget(line[2]))
    if tag == "sb":
        ctx = line[-1]
        if ctx is None:
            return (PRINTABLE, math.inf)
        return (_ITEM if ctx == _LIST_ITEM else _CELL, math.inf)
    if tag == "ib":
        return (_ITEM, math.inf)
    return None


def split(state, reach: int, asked: list):
    """``(local, context)``.  The local state is ``state`` with the keys of
    each unconstrained object replaced by a ``keys.Taken`` that writes to
    ``asked``, and the text of an object key cut to its length class
    (``keys.local_text``); all else stays, other frames and header names
    included.  The context is ``(text, sets)``: that key text (None where
    there is none) and the keys of each frame, by stack position.  The first
    key of a list item stays in the local state: it goes into an object that
    the item opens, not into an open one."""
    stack, line = state
    local = tuple(("obj", frame[1], keys.Taken(i, asked)) if frame[0] == "obj" else frame
                  for i, frame in enumerate(stack))
    sets = tuple(frame[2] if frame[0] == "obj" else _EMPTY for frame in stack)
    text, tag = None, line[0]
    if tag == "keyend":
        text = line[1]
        line = ("keyend", keys.local_text(text, reach))
    elif tag == "key" and line[1] == _KEYEND:
        text = line[2]
        line = ("key", _KEYEND, keys.local_text(text, reach))
    elif tag == "q" and line[1] == _KEYEND:
        text, esc = line[2]
        line = ("q", _KEYEND, (keys.local_text(text, reach), esc))
    return (local, line), (text, sets)


def _push(stack, frame):
    if len(stack) >= MAX_DEPTH:
        return None
    return stack + (frame,)


def _take_one(stack):
    """The top array frame with one item or row fewer owed."""
    frame = stack[-1]
    return stack[:-1] + ((frame[0], frame[1], frame[2] - 1) + frame[3:],)


def _end_line(stack):
    return (stack, _IND0)


# -- main transition ---------------------------------------------------------


def step(state, b: int):
    if b != NL and not (0x20 <= b <= 0x7E):
        return None
    line = state[1]
    return _HANDLERS[line[0]](state[0], line, b)


# Every handler takes ``(stack, line, b)`` for a byte that passed the guard in
# ``step`` (NL or printable ASCII) and returns the next state or None.


def _indent(stack, line, b):
    n = line[1]
    if b == SP:
        n += 1
        # never indent past the deepest frame that can still take a line,
        # otherwise the consumed spaces would have no legal continuation
        if n > _max_content_col(stack):
            return None
        return (stack, ("ind", n))
    if b == NL:
        return None
    # resolve dedents
    while stack[-1][1] > n:
        if not _poppable(stack[-1]):
            return None
        stack = stack[:-1]
    if stack[-1][1] != n:
        return None
    return _dispatch(stack, b)


def _dispatch(stack, b):
    """First content byte of a line, with the indent already resolved so the
    top frame's col equals the line's indent."""
    frame = stack[-1]
    tag = frame[0]
    if tag == "obj":
        return _key_start(stack, _KEYEND, b)
    if tag == "sobj":
        return _literal(*_field(stack), b) if frame[2] else None
    if frame[2] == 0:
        return None
    if tag == "list":
        # decrement remaining now; the item line is committed
        return (_take_one(stack), _DASH) if b == 0x2D else None
    return _value_start(stack, ("tvs", frame[3][0], 0), b)


def _key_start(stack, cont, b):
    """First byte of a key that closes into ``cont``: a quote opens a quoted
    key, a byte of _KEY_START a bare one."""
    if b == 0x22:
        return (stack, ("q", cont, keys.KEY))
    if b in _KEY_START:
        return (stack, ("key", cont, chr(b)))
    return None


def _taken(stack, cont):
    """The keys that a key closed into ``cont`` may not repeat: those of the
    top object (``keyend``) or the names of the tabular header being read
    (``hqe``).  A list item's first key (``iqe``) opens an object of its own."""
    tag = cont[0]
    if tag == "keyend":
        return stack[-1][2]
    return cont[2] if tag == "hqe" else _EMPTY


def _quoted(stack, line, b):
    """Inside a quoted string, lexed by ``keys.quoted``.  The closing quote
    enters ``cont``, with a key's text appended.  A list item's first token
    (``iqe``) that can no longer be a key goes on as a scalar item: the byte
    is read again in a value.  Any other key is refused."""
    _, cont, lex = line
    nxt = keys.quoted(lex, b, _ESCAPES, _taken, stack, cont)
    if nxt is None:
        return _quoted(stack, ("q", _IQV, (None, lex[1])), b) if cont == _IQE else None
    if nxt is CLOSED:
        return (stack, cont if lex[0] is None else cont + (lex[0],))
    return (stack, line if nxt is lex else ("q", cont, nxt))


def _bare_key(stack, line, b):
    """Bare key ``[A-Za-z0-9_.-]``, at most MAX_KEY characters; its first
    byte was checked on entry.  The first byte that cannot extend it goes to
    the continuation ``cont``, with the key appended."""
    _, cont, text = line
    if b in _KEY_CHARS:
        text = keys.grow(text, chr(b), _taken, stack, cont)
        return None if text is None else (stack, ("key", cont, text))
    return _HANDLERS[cont[0]](stack, cont + (text,), b)


def _finish_key(stack, line, b):
    """A key ends with ':' (a value follows) or '[' (an array header
    follows) and joins the top object frame, which must not hold it yet.  The
    first key of a list item (``iqe``) opens that frame, two columns right of
    the dash; a quoted first token ended by NL is a scalar item instead."""
    tag, key = line
    if b == NL and tag == "iqe":
        return _end_line(stack)
    if b != 0x3A and b != 0x5B:
        return None
    if tag == "iqe":
        stack = _push(stack, ("obj", stack[-1][1] + 2, _EMPTY))
        if stack is None:
            return None
    _, col, seen = stack[-1]
    if key in seen:
        return None
    stack = stack[:-1] + (("obj", col, seen | {key}),)
    if b == 0x3A:
        return (stack, _SP0)
    # the array frame must fit as well
    if len(stack) >= MAX_DEPTH:
        return None
    return (stack, ("cnt", "u", 0, 0, col + 2))


def _field(stack):
    """The next field of the top schema object, taken off it: its key as the
    encoder writes it, then ': ' and a scalar, ':' and the newline that opens
    an object, or '[' and an array's count."""
    frame = stack[-1]
    (name, fs), col = frame[2][0], frame[1]
    stack = stack[:-1] + (("sobj", col, frame[2][1:]),)
    key = toon._encode_key(name)
    if isinstance(fs, ObjectType):
        return (stack, ("lit", key + ":", 0, ("nl", ("sobj", col + 2, fs.fields))))
    if isinstance(fs, ArrayType):
        return (stack, ("lit", key + "[", 0, ("cnt", ("s", fs.element), 0, 0, col + 2)))
    return (stack, ("lit", key + ": ", 0, ("tvs", fs, None)))


def _space(stack, line, b):
    """After an unconstrained key's ':', the space before a scalar, or NL,
    which opens a nested object."""
    if b == SP:
        return (stack, ("tvs", None, None))
    if b == NL:
        s2 = _push(stack, ("obj", stack[-1][1] + 2, _EMPTY))
        return None if s2 is None else _end_line(s2)
    return None


def _open_frame(stack, line, b):
    """A header line is complete: its newline opens ``frame``."""
    if b != NL:
        return None
    s2 = _push(stack, line[1])
    return None if s2 is None else _end_line(s2)


# -- array headers -----------------------------------------------------------


def _count(stack, line, b):
    _, marker, val, nd, ccol = line
    if 0x30 <= b <= 0x39:
        if nd >= MAX_COUNT_DIGITS or (nd == 1 and val == 0):
            return None
        return (stack, ("cnt", marker, val * 10 + b - 0x30, nd + 1, ccol))
    if b == 0x5D and nd > 0:
        return (stack, ("pc", marker, val, ccol))
    return None


def _after_count(stack, line, b):
    """After ``[n]``: ':' for a list, '{' for a tabular header.  ``ccol``
    is the column where the items or rows will sit."""
    _, marker, n, ccol = line
    if marker == "u":
        if b == 0x3A:
            return (stack, ("nl", ("list", ccol, n, None)))
        if b == 0x7B:
            return (stack, ("hstart", n, (), ccol))
        return None
    elem = marker[1]
    if n > 0 and _tabular_schema(elem):  # the schema forces tabular layout
        names = ",".join(toon._encode_key(name) for name, _ in elem.fields)
        frame = ("table", ccol, n, tuple(fs for _, fs in elem.fields))
        return _literal(stack, ("lit", "{" + names + "}:", 0, ("nl", frame)), b)
    return _literal(stack, ("lit", ":", 0, ("nl", ("list", ccol, n, elem))), b)


def _header_start(stack, line, b):
    """Start of an unconstrained tabular header name; the name is lexed as
    a key and then handed to ``hqe``."""
    return _key_start(stack, ("hqe",) + line[1:], b)


def _header_end(stack, line, b):
    _, n, done, ccol, h = line
    if h in done:
        return None
    if b == 0x2C:
        return (stack, ("hstart", n, done + (h,), ccol))
    if b == 0x7D:
        frame = ("table", ccol, n, (None,) * (len(done) + 1))
        return (stack, ("lit", ":", 0, ("nl", frame)))
    return None


# -- list items --------------------------------------------------------------


def _dash(stack, line, b):
    frame = stack[-1]
    elem = frame[3]
    if b == NL:
        # bare '-' is an empty-object item; under a schema that is only
        # valid when the element type is an empty object
        if elem is not None and not (isinstance(elem, ObjectType) and not elem.fields):
            return None
        return _end_line(stack)
    if b != SP:
        return None
    if elem is None:
        return (stack, _ITEM0)
    if isinstance(elem, ObjectType):
        if not elem.fields:
            return None
        s2 = _push(stack, ("sobj", frame[1] + 2, elem.fields))
        return None if s2 is None else _field(s2)
    if isinstance(elem, ArrayType):
        # header sits two columns right of the dash; its items two more
        return (stack, ("lit", "[", 0, ("cnt", ("s", elem.element), 0, 0, frame[1] + 4)))
    return (stack, ("tvs", elem, _LIST_ITEM))


def _item_start(stack, line, b):
    if b == 0x5B:
        if len(stack) >= MAX_DEPTH:
            return None
        return (stack, ("cnt", "u", 0, 0, stack[-1][1] + 4))
    if b == 0x22:
        return (stack, ("q", _IQE, keys.KEY))
    # a leading ':' would end an empty key
    if b == SP or b == NL or b == 0x3A:
        return None
    return (stack, ("ib", chr(b), False))


def _item_bare(stack, line, b):
    """A list item's bare first token: a key (ended by ':' or '[') or a
    scalar (ended by NL).  Any printable byte but ':' and '[' extends it;
    ``tsp`` flags a trailing space, on which neither may end.  ``chars`` is
    the text so far, or None past MAX_KEY characters, where only a scalar
    can end it."""
    _, chars, tsp = line
    if b == 0x3A or b == 0x5B:
        return None if tsp or chars is None else _finish_key(stack, ("iqe", chars), b)
    if b == NL:
        return None if tsp else _end_line(stack)  # scalar item
    if chars is not None:
        chars = chars + chr(b) if len(chars) < MAX_KEY else None
    return (stack, ("ib", chars, b == SP))


# -- scalar values and tabular cells -----------------------------------------


def _value_start(stack, line, b):
    """First byte of a scalar of schema type ``fs`` (None: unconstrained) in
    context ``ctx``: None after ``key: ``, ``_LIST_ITEM`` after a schema list
    item's ``- ``, else the index of a cell in the row of the top tabular
    frame.  The byte is read by the scalar's own handler from its start."""
    _, fs, ctx = line
    if fs is None or isinstance(fs, StrType):
        if b == 0x22:
            return (stack, ("q", ("sqe", ctx), keys.VALUE))
        # no leading space, and no empty cell
        if b == SP or b == NL or (b == 0x2C and type(ctx) is int):
            return None
        if fs is None:  # no numeral or literal to track
            return _bare_value(stack, ("sb", None, None, False, ctx), b)
        return _bare_value(stack, ("sb", "", "", False, ctx), b)
    if isinstance(fs, IntType):
        return _numeral(stack, ("num", "", 0, ctx), b)
    if isinstance(fs, FloatType):
        return _numeral(stack, ("num", "", None, ctx), b)
    if isinstance(fs, BoolType):
        word = "true" if b == 0x74 else "false"
        return _literal(stack, ("lit", word, 0, ("sqe", ctx)), b)
    return None


def _value_end(stack, line, b):
    """Terminator byte after a scalar, whose context ``ctx`` ends ``line``:
    NL ends a value line; a cell ends with ',' when another cell follows and
    with NL after the last one, which completes the row."""
    ctx = line[-1]
    if type(ctx) is not int:
        return _end_line(stack) if b == NL else None
    cols = stack[-1][3]
    if b == 0x2C:
        if ctx + 1 >= len(cols):
            return None
        return (stack, ("tvs", cols[ctx + 1], ctx + 1))
    if b == NL and ctx + 1 == len(cols):
        return _end_line(_take_one(stack))
    return None


def _bare_value(stack, line, b):
    """Bare value or cell: printable bytes up to NL (or ',' in a cell);
    ``tsp`` flags a trailing space, on which it may not end.  A StrType
    lexeme may not end as a number or literal either: ``num`` is its state
    in ``numerals.TOON`` and ``lit`` the literal prefix it spells, each None
    once it can no longer be one, and both None for an unconstrained value.
    A bare list item holds no ':' or '[', where the parser would read a
    key."""
    _, num, lit, tsp, ctx = line
    if b == NL or (b == 0x2C and type(ctx) is int):
        if tsp or num in numerals.ACCEPTING or lit in toon.LITERALS:
            return None
        return _value_end(stack, line, b)
    if (b == 0x3A or b == 0x5B) and ctx == _LIST_ITEM:
        return None
    if num is not None:
        num = numerals.TOON[num].get(b)
    if lit is not None:
        lit += chr(b)
        if lit not in _LIT_PREFIXES:
            lit = None
    return (stack, ("sb", num, lit, b == SP, ctx))


def _numeral(stack, line, b):
    """IntType by ``numerals.INT``, ``nd`` counting its digits up to
    MAX_INT_DIGITS; FloatType by ``numerals.TOON``, ``nd`` None."""
    _, st, nd, ctx = line
    nxt = (numerals.TOON if nd is None else numerals.INT)[st].get(b)
    if nxt is None:
        return _value_end(stack, line, b) if st in numerals.ACCEPTING else None
    if nd is not None and nxt != "m":  # a digit
        nd += 1
        if nd > MAX_INT_DIGITS:
            return None
    return (stack, ("num", nxt, nd, ctx))


def _literal(stack, line, b):
    """``word`` spelled exactly; the byte after it goes to ``then``."""
    _, word, pos, then = line
    if pos == len(word):
        return _HANDLERS[then[0]](stack, then, b)
    return (stack, ("lit", word, pos + 1, then)) if chr(b) == word[pos] else None


_HANDLERS = {
    "ind": _indent,  # (n), and the document's start (0, "start")
    "key": _bare_key,  # (cont, text)
    "q": _quoted,  # (cont, lex): lex is keys.quoted's (text, esc)
    "keyend": _finish_key,  # (key): object key read
    "sp": _space,  # after an unconstrained key's ':'
    "tvs": _value_start,  # (fs, ctx): scalar value or cell starts
    "nl": _open_frame,  # (frame): header line done
    "cnt": _count,  # (marker, val, ndigits, ccol): array count digits
    "pc": _after_count,  # (marker, n, ccol)
    "hstart": _header_start,  # (n, names, ccol): tabular header name starts
    "hqe": _header_end,  # (n, names, ccol, name): header name read
    "lit": _literal,  # (word, pos, then): fixed text, schema keys and headers included
    "dash": _dash,  # after a list item's '-'
    "item0": _item_start,  # after an unconstrained item's "- "
    "ib": _item_bare,  # (chars or None, tsp)
    "iqe": _finish_key,  # (text): item's quoted first token read
    "num": _numeral,  # (st, ndigits or None, ctx): IntType or FloatType
    "sb": _bare_value,  # (num, lit, tsp, ctx): bare value or cell
    "sqe": _value_end,  # (ctx): quoted value or cell read
}
