"""TOON codec: indentation-sensitive parse, deterministic encode, fence extraction.

Format summary (2-space indentation, root is an object):

    key: value              scalar field
    key:                    nested object (fields indented one level)
    key[N]:                 list array, N dash items indented one level
      - value               scalar item
      - k: v                object item, continuation fields aligned under "k"
      - [M]:                nested array item
      -                     empty-object item
    key[N]{h1,h2}:          tabular array, N comma-separated rows
      v1,v2

Scalars lex as true/false/null, integer or decimal numerals, else strings.
Strings are double-quoted with backslash escapes when their spelling would
be ambiguous (commas, colons, edge spaces, literal look-alikes, ...).
``[N]`` must equal the actual item/row count.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import NoReturn, Optional

from .values import _SURROGATE, Value, check_value, emit_canonical_json

ERROR_KINDS = (
    "bad-indent",
    "count-mismatch",
    "arity-mismatch",
    "bad-escape",
    "unexpected-token",
    "missing-fence",
)


class ToonError(ValueError):
    def __init__(self, line: int, column: int, kind: str, message: str):
        assert kind in ERROR_KINDS, kind
        super().__init__(f"line {line}, column {column}: {kind}: {message}")
        self.line = line
        self.column = column
        self.kind = kind
        self.message = message


@dataclass
class ToonDocument:
    root: Value


# ASCII digits only: \d would also match other scripts' digits, such as "١٢".
_INT_RE = re.compile(r"-?[0-9]+\Z")
_NUM_RE = re.compile(r"-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?\Z")
_NUMERAL_START = frozenset("-0123456789")
# Keys and tabular header names: bare where the automaton's key lexer takes
# them, one of _KEY_START and then any of _KEY_CHARS, and quoted otherwise.
_KEY_START = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_"
_KEY_CHARS = _KEY_START + ".-"
_BARE_KEY = f"[{re.escape(_KEY_START)}][{re.escape(_KEY_CHARS)}]*"
_BARE_KEY_RE = re.compile(_BARE_KEY + r"\Z")

# The bare words that read as a bool or null rather than as a string.
LITERALS = {"true": True, "false": False, "null": None}
_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "t": "\t", "r": "\r", "/": "/"}
_UNESCAPES = {"\n": "\\n", "\t": "\\t", "\r": "\\r", '"': '\\"', "\\": "\\\\"}


def _lex_bare_scalar(text: str) -> Value:
    """The bool, null, number or string that the non-empty ``text`` spells."""
    if text[0] not in _NUMERAL_START:
        return LITERALS.get(text, text)
    if text.isdigit() and text.isascii():
        return int(text)
    m = _NUM_RE.match(text)
    if m is None:
        return text
    if m.lastindex is None:  # neither a fraction nor an exponent: a negative integer
        return int(text)
    f = float(text)
    if math.isinf(f):
        raise ValueError("number out of finite float range")
    return f


def _needs_quotes(s: str) -> bool:
    if s == "":
        return True
    # the parser strips every edge whitespace (str.strip), Unicode included
    if s != s.strip():
        return True
    if any(c in s for c in ',:"\\[') or any(ord(c) < 0x20 for c in s):
        return True
    if s[0] in "{-":
        return True
    if s in LITERALS or _NUM_RE.match(s):
        return True
    return False


def _quote(s: str) -> str:
    out = ['"']
    for c in s:
        out.append(_UNESCAPES.get(c, c))
    out.append('"')
    return "".join(out)


def _encode_scalar(v: Value) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, float)):
        # the spelling of int and float themselves: before Python 3.11 the
        # str() of an IntEnum member is its name
        return float.__repr__(v) if isinstance(v, float) else int.__repr__(v)
    assert isinstance(v, str)
    return _quote(v) if _needs_quotes(v) else v


def _encode_key(k: str) -> str:
    if _BARE_KEY_RE.match(k):
        return k
    return _quote(k)


def _is_scalar(v: Value) -> bool:
    return v is None or isinstance(v, (bool, int, float, str))


def _tabular_headers(items: list) -> Optional[tuple]:
    """Header tuple if every item is an object with one shared key set of scalars."""
    if not items:
        return None
    first = items[0]
    if not isinstance(first, dict) or not first:
        return None
    headers = tuple(first.keys())
    hset = set(headers)
    for item in items:
        if not isinstance(item, dict) or set(item.keys()) != hset:
            return None
        if not all(_is_scalar(x) for x in item.values()):
            return None
    return headers


class NonObjectRoot(ValueError):
    pass


def encode_toon(v: Value) -> str:
    """Deterministic TOON encoding; root must be an object."""
    check_value(v)
    if not isinstance(v, dict):
        raise NonObjectRoot(f"TOON documents require an object root, got {type(v).__name__}")
    lines: list = []
    _encode_fields(v, 0, lines)
    if not lines:
        return ""
    return "\n".join(lines) + "\n"


def _encode_fields(obj: dict, level: int, lines: list):
    pad = "  " * level
    for key, val in obj.items():
        ek = _encode_key(key)
        if _is_scalar(val):
            lines.append(f"{pad}{ek}: {_encode_scalar(val)}")
        elif isinstance(val, dict):
            lines.append(f"{pad}{ek}:")
            _encode_fields(val, level + 1, lines)
        else:
            _encode_array(pad + ek, val, level + 1, lines)


def _encode_array(head: str, items: list, level: int, lines: list):
    """The line ``head[N]...:`` and the items or rows below it at ``level``."""
    headers = _tabular_headers(items)
    pad = "  " * level
    if headers is not None:
        names = ",".join(_encode_key(h) for h in headers)
        lines.append(f"{head}[{len(items)}]{{{names}}}:")
        for item in items:
            lines.append(pad + ",".join(_encode_scalar(item[h]) for h in headers))
        return
    lines.append(f"{head}[{len(items)}]:")
    for item in items:
        if _is_scalar(item):
            lines.append(f"{pad}- {_encode_scalar(item)}")
        elif isinstance(item, dict):
            if not item:
                lines.append(pad + "-")
                continue
            sub: list = []
            _encode_fields(item, level + 1, sub)
            # Fold the first field onto the dash line.
            lines.append(pad + "- " + sub[0][len(pad) + 2:])
            lines.extend(sub[1:])
        else:
            # the fold after "- " shifts the header two columns right, so the
            # nested body indents relative to that, not to the dash
            _encode_array(pad + "- ", item, level + 2, lines)


# ---------------------------------------------------------------------------
# Parsing
#
# A line is the tuple ``(number, indent, content)``: its 1-based number, the
# columns of its indentation and the text after them, trailing whitespace
# stripped.  Every position is an offset into the content;
# ``_ToonParser.error`` turns it into a column of the raw line.
#
# The last record is the end record.  Its indentation closes every block
# (``_END``), or it stands at the indentation of the first line that cannot
# be read: a line with a tab in its indentation or a lone surrogate
# character, or the line after an interior blank line.  Its content is empty,
# which no construct accepts, so the parser refuses it when it reads it, and
# ``error`` then raises that line's fault.  A problem on an earlier line, found
# when the end record's indentation closes a block, comes first.

_END = (0, -1, "")


def _split_lines(text: str) -> tuple:
    """The content lines of ``text`` up to the first that cannot be read,
    then the end record; and that line's fault, a ToonError, or None.  A blank
    line is legal only after the last content line."""
    lines = []
    blank = 0  # the first blank line, if any
    # text.isascii() is O(1): then no line holds a lone surrogate
    check = "\t" in text or not text.isascii() and _SURROGATE.search(text)
    for num, raw in enumerate(text.split("\n"), 1):
        content = raw.rstrip()
        if not content:
            blank = blank or num
            continue
        body = content.lstrip(" ")
        indent = len(content) - len(body)
        if blank or check:
            fault = _fault(num, indent, body, blank)
            if fault:
                lines.append((num, indent, ""))
                return lines, fault
        lines.append((num, indent, body))
    lines.append(_END)
    return lines, None


def _fault(num: int, indent: int, body: str, blank: int) -> Optional[ToonError]:
    """The problem that keeps the content line ``body`` from being read, if any."""
    if blank:
        return ToonError(blank, 1, "unexpected-token", "blank line inside document")
    if body[0] == "\t":
        return ToonError(num, indent + 1, "bad-indent", "tab character in indentation")
    bad = _SURROGATE.search(body)
    if bad:
        return ToonError(num, indent + bad.start() + 1, "unexpected-token",
                         "lone surrogate character")
    return None


# The common line shapes, read in one match at the start of a field line or
# after a list item's "- ": a key as the encoder writes it bare, then
# ": value" (a bare value), ":", "[N]:" or "[N]{names}:" (names written bare).
# A line it does not take goes to the general methods, which raise every error.
_SHAPE_RE = re.compile(rf"""({_BARE_KEY})
    (?: :(?:\ ([^\ "].*))?
      | \[(0|[1-9][0-9]{{0,17}})\] (?:\{{({_BARE_KEY}(?:,{_BARE_KEY})*)\}})? : )\Z""",
                       re.VERBOSE)
_KEY_END_RE = re.compile(r"[:\[]")
_COUNT_RE = re.compile(r"\[(0|[1-9][0-9]*)\]")
_NAME_RE = re.compile(r"[^,}]*")  # a bare tabular header name
_CELL_RE = re.compile(r"[^,]*")  # a bare row cell
_PLAIN_RE = re.compile(r'[^"\\]*')  # quoted text up to a quote or backslash
_HEX4_RE = re.compile(r"[0-9A-Fa-f]{4}")
_LOW_ESCAPE_RE = re.compile(r"\\u([dD][c-fC-F][0-9a-fA-F]{2})")  # a low surrogate's escape


def _is_item(text: str) -> bool:
    return text == "-" or text.startswith("- ")


class _ToonParser:
    def __init__(self, text: str):
        self.lines, self.fault = _split_lines(text)
        self.idx = 0

    def error(self, ln: tuple, i: int, kind: str, msg: str) -> NoReturn:
        if ln is self.lines[-1]:  # the end record, read: the fault of its line
            raise self.fault
        raise ToonError(ln[0], ln[1] + i + 1, kind, msg)

    # -- objects ------------------------------------------------------------

    def fields(self, col: int, obj: dict, item: bool = False) -> dict:
        """The field lines at indentation ``col``, added to ``obj``.  In the
        object of a list item (``item``) a dash line ends them: it is the next
        item of the enclosing array."""
        lines = self.lines
        while True:
            ln = lines[self.idx]
            if ln[1] != col:
                if ln[1] < col:
                    return obj
                self.error(ln, 0, "bad-indent", f"expected indentation {col}, found {ln[1]}")
            m = _SHAPE_RE.match(ln[2])
            if m is not None:
                self.idx += 1
                key = m[1]
                if key in obj:
                    self.error(ln, 0, "unexpected-token", f"duplicate key {key!r}")
                obj[key] = self.shaped(ln, 0, m)
                continue
            if _is_item(ln[2]):
                if item:
                    return obj
                self.error(ln, 0, "unexpected-token", "list item outside an array")
            self.idx += 1
            found = self.key(ln, 0)
            if found is None:
                self.error(ln, len(ln[2]), "unexpected-token", "expected ':' after key")
            key, i = found
            if key in obj:
                self.error(ln, 0, "unexpected-token", f"duplicate key {key!r}")
            obj[key] = self.value(ln, 0, i)

    def shaped(self, ln: tuple, start: int, m: re.Match) -> Value:
        """The value of the key at offset ``start`` on a line of a common
        shape: ``m`` is _SHAPE_RE's match there."""
        _, raw, count, names = m.groups()
        if raw is not None:
            try:
                return _lex_bare_scalar(raw)
            except ValueError:
                return self.lex(ln, m.start(2), raw)  # which raises the error
        if count is None:
            return self.nested(ln, start)
        if names is not None:
            names = tuple(names.split(","))
            if len(set(names)) != len(names):
                return self.array(ln, start, m.end(1))  # which raises the error
        return self.body(ln, start, int(count), names)

    def key(self, ln: tuple, i: int):
        """The key at offset ``i`` and the offset after it, or None when no
        ':' or '[' ends a bare key."""
        text = ln[2]
        if text.startswith('"', i):
            return self.quoted(ln, i)
        m = _KEY_END_RE.search(text, i)
        if m is None:
            return None
        key = text[i:m.start()]
        if key == "" or key != key.strip(" "):
            self.error(ln, i, "unexpected-token", "malformed key")
        return key, m.start()

    def value(self, ln: tuple, start: int, i: int) -> Value:
        """The value of the key from offset ``start`` to ``i``: an array, an
        object on the lines below, or a scalar."""
        text = ln[2]
        if text.startswith("[", i):
            return self.array(ln, start, i)
        if not text.startswith(":", i):
            self.error(ln, i, "unexpected-token", "expected ':' after key")
        i += 1
        if i == len(text):
            return self.nested(ln, start)
        if text[i] != " ":
            self.error(ln, i, "unexpected-token", "expected space after ':'")
        return self.scalar(ln, i + 1)

    def nested(self, ln: tuple, start: int) -> dict:
        """The object on the lines below the line ``ln`` that ends with the
        ':' of the key at offset ``start``."""
        col = ln[1] + start
        if self.lines[self.idx][1] > col:
            return self.fields(col + 2, {})
        return {}

    # -- arrays -------------------------------------------------------------

    def array(self, ln: tuple, start: int, i: int) -> list:
        """The array whose header ``[N]:`` or ``[N]{names}:`` opens at offset
        ``i``, after a key (or a list item's dash) at ``start``."""
        text = ln[2]
        m = _COUNT_RE.match(text, i)
        if not m:
            self.error(ln, i + 1, "unexpected-token", "malformed array count")
        count = self.lex(ln, i + 1, m.group(1))  # the digits lex as an int
        i = m.end()
        if not text.startswith("{", i):
            if text[i:] != ":":
                self.error(ln, i, "unexpected-token", "expected ':' after array count")
            return self.body(ln, start, count, None)
        names, j = self.cells(ln, i + 1, header=True)
        if j == len(text):
            self.error(ln, j - 1, "unexpected-token", "unterminated tabular header")
        if text[j] != "}":
            self.error(ln, j, "unexpected-token", "expected ',' or '}' in header")
        if len(set(names)) != len(names):
            self.error(ln, i, "unexpected-token", "duplicate header name")
        if text[j + 1:] != ":":
            self.error(ln, len(text) - 1, "unexpected-token",
                       "expected ':' after tabular header")
        return self.body(ln, start, count, tuple(names))

    def body(self, ln: tuple, start: int, count: int, names) -> list:
        """The ``count`` lines under the array header ``ln``: list items, or
        the rows of the tabular header ``names``."""
        col = ln[1] + start + 2
        lines = self.lines
        out = []
        while True:
            nxt = lines[self.idx]
            if nxt[1] != col:
                if nxt[1] < col:
                    break
                self.error(nxt, 0, "bad-indent", f"expected indentation {col}, found {nxt[1]}")
            if names is None and not _is_item(nxt[2]):
                if nxt is lines[-1]:  # the end record, read
                    raise self.fault
                break  # the count check or the enclosing object refuses it
            if len(out) >= count:
                self.error(nxt, 0, "count-mismatch",
                           f"declared {count} {'items' if names is None else 'rows'} "
                           "but found more")
            self.idx += 1
            out.append(self.item(nxt) if names is None else self.row(nxt, names))
        if len(out) != count:
            self.error(ln, start, "count-mismatch",
                       f"declared {count} {'items' if names is None else 'rows'} "
                       f"but found {len(out)}")
        return out

    def cells(self, ln: tuple, i: int, header: bool):
        """The comma-separated cells from offset ``i`` and the offset where
        they stop: a tabular header's names stop at '}' or the end of the
        line, where no name may start; a row's values at the end of the line."""
        text = ln[2]
        bare = _NAME_RE if header else _CELL_RE
        cells = []
        while not (header and i == len(text)):
            if text.startswith('"', i):
                cell, i = self.quoted(ln, i)
            else:
                j = bare.match(text, i).end()
                cell = text[i:j]
                if cell == "" or cell != cell.strip(" "):
                    self.error(ln, i, "unexpected-token",
                               "malformed header name" if header else "malformed bare cell")
                if not header:
                    cell = self.lex(ln, i, cell)
                i = j
            cells.append(cell)
            if not text.startswith(",", i):
                break
            i += 1
        return cells, i

    def row(self, ln: tuple, names: tuple) -> dict:
        text = ln[2]
        # without a '"', a space beside a ',' or an empty cell, every cell is bare
        if not ('"' in text or ", " in text or " ," in text):
            cells = text.split(",")
            if len(cells) == len(names) and "" not in cells:
                try:
                    return dict(zip(names, map(_lex_bare_scalar, cells)))
                except ValueError:
                    pass  # a numeral int() or float() cannot hold: the general path refuses it
        cells, i = self.cells(ln, 0, header=False)
        if i < len(text):
            self.error(ln, i, "unexpected-token", "expected ',' between cells")
        if len(cells) != len(names):
            self.error(ln, 0, "arity-mismatch",
                       f"row has {len(cells)} cells, header has {len(names)}")
        return dict(zip(names, cells))

    def item(self, ln: tuple) -> Value:
        """A list item: ``-`` (an empty object), a keyless array, a scalar, or
        an object whose first field follows the dash."""
        text = ln[2]
        if text == "-":
            return {}
        m = _SHAPE_RE.match(text, 2)
        if m is not None:
            return self.fields(ln[1] + 2, {m[1]: self.shaped(ln, 2, m)}, True)
        if text.startswith("[", 2):
            return self.array(ln, 2, 2)
        found = self.key(ln, 2)
        if found is None:
            return self.scalar(ln, 2)
        key, i = found
        if i == len(text):
            return key  # a quoted scalar
        return self.fields(ln[1] + 2, {key: self.value(ln, 2, i)}, True)

    # -- scalars ------------------------------------------------------------

    def scalar(self, ln: tuple, i: int) -> Value:
        text = ln[2]
        if text.startswith('"', i):
            s, j = self.quoted(ln, i)
            if j != len(text):
                self.error(ln, j, "unexpected-token", "trailing characters after quoted string")
            return s
        if text.startswith(" ", i):
            self.error(ln, i, "unexpected-token", "unquoted value starts with a space")
        return self.lex(ln, i, text[i:])

    def lex(self, ln: tuple, i: int, raw: str) -> Value:
        """The bare scalar ``raw`` at offset ``i``; a numeral that int() or
        float() cannot hold is refused there."""
        try:
            return _lex_bare_scalar(raw)
        except ValueError as e:
            self.error(ln, i, "unexpected-token", str(e))

    def quoted(self, ln: tuple, i: int):
        """The quoted string at offset ``i`` and the offset after its closing quote."""
        text = ln[2]
        out = []
        i += 1
        while True:
            j = _PLAIN_RE.match(text, i).end()
            out.append(text[i:j])
            if j == len(text):
                self.error(ln, j - 1, "unexpected-token", "unterminated quoted string")
            if text[j] == '"':
                return "".join(out), j + 1
            if j + 1 == len(text):  # text[j] is a backslash
                self.error(ln, j, "bad-escape", "unterminated escape")
            esc = text[j + 1]
            if esc in _ESCAPES:
                out.append(_ESCAPES[esc])
                i = j + 2
            elif esc == "u":
                if not _HEX4_RE.match(text, j + 2):
                    self.error(ln, j, "bad-escape", "invalid \\u escape")
                code, i = int(text[j + 2:j + 6], 16), j + 6
                low = _LOW_ESCAPE_RE.match(text, i) if 0xD800 <= code < 0xDC00 else None
                if low:  # a surrogate pair stands for one character, as in JSON
                    code = 0x10000 + ((code - 0xD800) << 10) + int(low.group(1), 16) - 0xDC00
                    i = low.end()
                elif 0xD800 <= code < 0xE000:
                    self.error(ln, j, "bad-escape", "lone surrogate escape")
                out.append(chr(code))
            else:
                self.error(ln, j, "bad-escape", f"invalid escape \\{esc}")


def parse_toon(text: str) -> ToonDocument:
    """Parse TOON text (no code fences) into a ToonDocument."""
    parser = _ToonParser(text)
    try:
        return ToonDocument(parser.fields(0, {}))
    except RecursionError:
        ln = parser.lines[max(parser.idx - 1, 0)]
        raise ToonError(ln[0], ln[1] + 1, "unexpected-token", "nesting too deep") from None


# After a fence's backticks: ```toon, or ``` and any info string, then spaces
# or tabs and the newline where its body starts.
_TOON_FENCE_HEAD_RE = re.compile(r"[ \t]*\n")
_ANY_FENCE_HEAD_RE = re.compile(r"[A-Za-z0-9_-]*[ \t]*\n")


def _fence_body(text: str, opening: str, head: re.Pattern) -> Optional[str]:
    """The body of the first fence that opens with ``opening`` then ``head``:
    the text up to the first ``` after it, or None.  If the first such opening
    has no closing ```, no later one has."""
    p = text.find(opening)
    while p >= 0:
        m = head.match(text, p + len(opening))
        if m is not None:
            end = text.find("```", m.end())
            return None if end < 0 else text[m.end():end]
        p = text.find(opening, p + 1)
    return None


def extract_toon_block(llm_output: str) -> str:
    """Contents of the first ```toon fenced block, or the whole output if it
    already parses as TOON.  Raises ToonError(missing-fence) otherwise."""
    body = _fence_body(llm_output, "```toon", _TOON_FENCE_HEAD_RE)
    if body is None:
        body = _fence_body(llm_output, "```", _ANY_FENCE_HEAD_RE)
    if body is not None:
        return body
    try:
        parse_toon(llm_output)
    except ToonError:
        raise ToonError(1, 1, "missing-fence",
                        "no ```toon code block and output is not parseable TOON") from None
    return llm_output


def toon_to_json(text: str) -> str:
    """Decode TOON to canonical JSON; ToonError passes through."""
    doc = parse_toon(text)
    return emit_canonical_json(doc.root)
