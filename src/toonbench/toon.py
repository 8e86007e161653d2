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
# Keys and tabular header names: bare where the automaton's key lexer takes
# them, one of _KEY_START and then any of _KEY_CHARS, and quoted otherwise.
_KEY_START = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_"
_KEY_CHARS = _KEY_START + ".-"
_BARE_KEY_RE = re.compile(f"[{re.escape(_KEY_START)}][{re.escape(_KEY_CHARS)}]*\\Z")

# The bare words that read as a bool or null rather than as a string.
LITERALS = {"true": True, "false": False, "null": None}
_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "t": "\t", "r": "\r", "/": "/"}
_UNESCAPES = {"\n": "\\n", "\t": "\\t", "\r": "\\r", '"': '\\"', "\\": "\\\\"}


def _lex_bare_scalar(text: str) -> Value:
    if text in LITERALS:
        return LITERALS[text]
    if _INT_RE.match(text):
        return int(text)
    if _NUM_RE.match(text):
        f = float(text)
        if math.isinf(f):
            raise ValueError("number out of finite float range")
        return f
    return text


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
# Every position is an offset into a line's content, ``_Line.text``;
# ``_ToonParser.error`` turns it into a column of the raw line.


@dataclass
class _Line:
    num: int  # 1-based
    indent: int  # columns
    text: str  # content after indent, trailing whitespace stripped


def _split_lines(text: str) -> list:
    """The content lines of ``text``; a blank line is legal only after the last one.
    A tab in the indentation and a lone surrogate character are refused here."""
    lines = []
    blank = 0  # the first blank line, if any
    all_ascii = text.isascii()  # then no line holds a lone surrogate
    for num, raw in enumerate(text.split("\n"), start=1):
        content = raw.rstrip()
        if content == "":
            blank = blank or num
            continue
        indent = len(content) - len(content.lstrip(" "))
        if content[indent] == "\t":
            raise ToonError(num, indent + 1, "bad-indent", "tab character in indentation")
        bad = not all_ascii and _SURROGATE.search(content)
        if bad:
            raise ToonError(num, bad.start() + 1, "unexpected-token", "lone surrogate character")
        lines.append(_Line(num, indent, content[indent:]))
    if blank and lines and blank < lines[-1].num:
        raise ToonError(blank, 1, "unexpected-token", "blank line inside document")
    return lines


_KEY_END_RE = re.compile(r"[:\[]")
_COUNT_RE = re.compile(r"\[(0|[1-9][0-9]*)\]")
_NAME_RE = re.compile(r"[^,}]*")  # a bare tabular header name
_CELL_RE = re.compile(r"[^,]*")  # a bare row cell
_PLAIN_RE = re.compile(r'[^"\\]*')  # quoted text up to a quote or backslash
_HEX4_RE = re.compile(r"[0-9A-Fa-f]{4}")
_LOW_ESCAPE_RE = re.compile(r"\\u([dD][c-fC-F][0-9a-fA-F]{2})")  # a low surrogate's escape


def _is_item(ln: _Line) -> bool:
    return ln.text == "-" or ln.text.startswith("- ")


class _ToonParser:
    def __init__(self, text: str):
        self.lines = _split_lines(text)
        self.idx = 0

    def peek(self) -> Optional[_Line]:
        return self.lines[self.idx] if self.idx < len(self.lines) else None

    def error(self, ln: _Line, i: int, kind: str, msg: str) -> NoReturn:
        raise ToonError(ln.num, ln.indent + i + 1, kind, msg)

    # -- objects ------------------------------------------------------------

    def fields(self, col: int, obj: dict, item: bool = False) -> dict:
        """The field lines at indentation ``col``, added to ``obj``.  In the
        object of a list item (``item``) a dash line ends them: it is the next
        item of the enclosing array."""
        while True:
            ln = self.peek()
            if ln is None or ln.indent < col:
                return obj
            if ln.indent > col:
                self.error(ln, 0, "bad-indent", f"expected indentation {col}, found {ln.indent}")
            if _is_item(ln):
                if item:
                    return obj
                self.error(ln, 0, "unexpected-token", "list item outside an array")
            self.idx += 1
            found = self.key(ln, 0)
            if found is None:
                self.error(ln, len(ln.text), "unexpected-token", "expected ':' after key")
            key, i = found
            if key in obj:
                self.error(ln, 0, "unexpected-token", f"duplicate key {key!r}")
            obj[key] = self.value(ln, 0, i)

    def key(self, ln: _Line, i: int):
        """The key at offset ``i`` and the offset after it, or None when no
        ':' or '[' ends a bare key."""
        text = ln.text
        if text.startswith('"', i):
            return self.quoted(ln, i)
        m = _KEY_END_RE.search(text, i)
        if m is None:
            return None
        key = text[i:m.start()]
        if key == "" or key != key.strip(" "):
            self.error(ln, i, "unexpected-token", "malformed key")
        return key, m.start()

    def value(self, ln: _Line, start: int, i: int) -> Value:
        """The value of the key from offset ``start`` to ``i``: an array, an
        object on the lines below, or a scalar."""
        text = ln.text
        if text.startswith("[", i):
            return self.array(ln, start, i)
        if not text.startswith(":", i):
            self.error(ln, i, "unexpected-token", "expected ':' after key")
        i += 1
        if i == len(text):
            col = ln.indent + start
            nxt = self.peek()
            if nxt is not None and nxt.indent > col:
                return self.fields(col + 2, {})
            return {}
        if text[i] != " ":
            self.error(ln, i, "unexpected-token", "expected space after ':'")
        return self.scalar(ln, i + 1)

    # -- arrays -------------------------------------------------------------

    def array(self, ln: _Line, start: int, i: int) -> list:
        """The array whose header ``[N]:`` or ``[N]{names}:`` opens at offset
        ``i``, after a key (or a list item's dash) at ``start``."""
        text = ln.text
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

    def body(self, ln: _Line, start: int, count: int, names) -> list:
        """The ``count`` lines under the array header ``ln``: list items, or
        the rows of the tabular header ``names``."""
        col = ln.indent + start + 2
        noun = "items" if names is None else "rows"
        out = []
        while True:
            nxt = self.peek()
            if nxt is None or nxt.indent < col:
                break
            if nxt.indent > col:
                self.error(nxt, 0, "bad-indent", f"expected indentation {col}, found {nxt.indent}")
            if names is None and not _is_item(nxt):
                break  # the count check or the enclosing object refuses it
            if len(out) >= count:
                self.error(nxt, 0, "count-mismatch", f"declared {count} {noun} but found more")
            self.idx += 1
            out.append(self.item(nxt) if names is None else self.row(nxt, names))
        if len(out) != count:
            self.error(ln, start, "count-mismatch",
                       f"declared {count} {noun} but found {len(out)}")
        return out

    def cells(self, ln: _Line, i: int, header: bool):
        """The comma-separated cells from offset ``i`` and the offset where
        they stop: a tabular header's names stop at '}' or the end of the
        line, where no name may start; a row's values at the end of the line."""
        text = ln.text
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

    def row(self, ln: _Line, names: tuple) -> dict:
        cells, i = self.cells(ln, 0, header=False)
        if i < len(ln.text):
            self.error(ln, i, "unexpected-token", "expected ',' between cells")
        if len(cells) != len(names):
            self.error(ln, 0, "arity-mismatch",
                       f"row has {len(cells)} cells, header has {len(names)}")
        return dict(zip(names, cells))

    def item(self, ln: _Line) -> Value:
        """A list item: ``-`` (an empty object), a keyless array, a scalar, or
        an object whose first field follows the dash."""
        text = ln.text
        if text == "-":
            return {}
        if text.startswith("[", 2):
            return self.array(ln, 2, 2)
        found = self.key(ln, 2)
        if found is None:
            return self.scalar(ln, 2)
        key, i = found
        if i == len(text):
            return key  # a quoted scalar
        return self.fields(ln.indent + 2, {key: self.value(ln, 2, i)}, item=True)

    # -- scalars ------------------------------------------------------------

    def scalar(self, ln: _Line, i: int) -> Value:
        text = ln.text
        if text.startswith('"', i):
            s, j = self.quoted(ln, i)
            if j != len(text):
                self.error(ln, j, "unexpected-token", "trailing characters after quoted string")
            return s
        if text.startswith(" ", i):
            self.error(ln, i, "unexpected-token", "unquoted value starts with a space")
        return self.lex(ln, i, text[i:])

    def lex(self, ln: _Line, i: int, raw: str) -> Value:
        """The bare scalar ``raw`` at offset ``i``; a numeral that int() or
        float() cannot hold is refused there."""
        try:
            return _lex_bare_scalar(raw)
        except ValueError as e:
            self.error(ln, i, "unexpected-token", str(e))

    def quoted(self, ln: _Line, i: int):
        """The quoted string at offset ``i`` and the offset after its closing quote."""
        text = ln.text
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
        raise ToonError(ln.num, ln.indent + 1, "unexpected-token", "nesting too deep") from None


_FENCE_RE = re.compile(r"```toon[ \t]*\n(.*?)```", re.DOTALL)
_ANY_FENCE_RE = re.compile(r"```[A-Za-z0-9_-]*[ \t]*\n(.*?)```", re.DOTALL)


def extract_toon_block(llm_output: str) -> str:
    """Contents of the first ```toon fenced block, or the whole output if it
    already parses as TOON.  Raises ToonError(missing-fence) otherwise."""
    m = _FENCE_RE.search(llm_output)
    if m is None:
        m = _ANY_FENCE_RE.search(llm_output)
    if m is not None:
        return m.group(1)
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
