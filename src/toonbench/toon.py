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
from dataclasses import dataclass, field
from typing import Optional

from .values import Value, check_value, emit_canonical_json

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


@dataclass(frozen=True)
class ArrayInfo:
    """Layout metadata for one array node, keyed by path in ToonDocument."""

    layout: str  # "list" | "tabular"
    declared_count: int
    headers: Optional[tuple] = None  # tabular only


@dataclass
class ToonDocument:
    root: Value
    arrays: dict = field(default_factory=dict)  # path tuple -> ArrayInfo


# ASCII digits only: \d would also match other scripts' digits, such as "١٢".
_INT_RE = re.compile(r"-?[0-9]+\Z")
_NUM_RE = re.compile(r"-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?\Z")
_BARE_KEY_RE = re.compile(r"[A-Za-z0-9_.\-]+\Z")

_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "t": "\t", "r": "\r", "/": "/"}
_UNESCAPES = {"\n": "\\n", "\t": "\\t", "\r": "\\r", '"': '\\"', "\\": "\\\\"}


def _lex_bare_scalar(text: str) -> Value:
    if text == "true":
        return True
    if text == "false":
        return False
    if text == "null":
        return None
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
    if s in ("true", "false", "null") or _NUM_RE.match(s):
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
        return repr(v) if isinstance(v, float) else str(v)
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


def _array_header(key: Optional[str], items: list) -> str:
    prefix = _encode_key(key) if key is not None else ""
    headers = _tabular_headers(items)
    if headers is not None:
        cells = ",".join(_quote(h) if _header_needs_quotes(h) else h for h in headers)
        return f"{prefix}[{len(items)}]{{{cells}}}:"
    return f"{prefix}[{len(items)}]:"


def _header_needs_quotes(h: str) -> bool:
    if h == "" or h != h.strip(" "):
        return True
    if any(c in h for c in ',}{"\\') or any(ord(c) < 0x20 for c in h):
        return True
    return h[0] == '"'


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
            lines.append(pad + _array_header(key, val))
            _encode_array_body(val, level + 1, lines)


def _encode_array_body(items: list, level: int, lines: list):
    headers = _tabular_headers(items)
    pad = "  " * level
    if headers is not None:
        for item in items:
            row = ",".join(_encode_cell(item[h]) for h in headers)
            lines.append(pad + row)
        return
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
            lines.append(pad + "- " + _array_header(None, item))
            _encode_array_body(item, level + 2, lines)


def _encode_cell(v: Value) -> str:
    return _encode_scalar(v)


# ---------------------------------------------------------------------------
# Parsing


@dataclass
class _Line:
    num: int  # 1-based
    indent: int  # columns
    text: str  # content after indent, trailing whitespace stripped


def _split_lines(text: str):
    lines = []
    for i, raw in enumerate(text.split("\n"), start=1):
        stripped = raw.rstrip()
        if stripped == "":
            continue  # classified later: blank lines are only legal at EOF
        indent = len(raw) - len(raw.lstrip(" "))
        rest = raw[indent:]
        if rest and rest[0] == "\t":
            raise ToonError(i, indent + 1, "bad-indent", "tab character in indentation")
        lines.append(_Line(i, indent, stripped[indent:] if indent <= len(stripped) else ""))
    # Interior blank lines are rejected; trailing ones are fine.
    seen = {ln.num for ln in lines}
    nums = [i for i, raw in enumerate(text.split("\n"), start=1) if raw.strip() == ""]
    last_content = max(seen) if seen else 0
    for n in nums:
        if n < last_content:
            raise ToonError(n, 1, "unexpected-token", "blank line inside document")
    return lines


class _ToonParser:
    def __init__(self, text: str):
        self.lines = _split_lines(text)
        self.idx = 0
        self.arrays: dict = {}

    def peek(self) -> Optional[_Line]:
        return self.lines[self.idx] if self.idx < len(self.lines) else None

    def error(self, line: _Line, col: int, kind: str, msg: str):
        raise ToonError(line.num, col, kind, msg)

    def parse_document(self) -> ToonDocument:
        root = self.parse_object(0, ())
        ln = self.peek()
        if ln is not None:
            self.error(ln, ln.indent + 1, "bad-indent",
                       f"unexpected indentation {ln.indent} at top level")
        return ToonDocument(root, self.arrays)

    # -- object blocks ------------------------------------------------------

    def parse_object(self, col: int, path) -> dict:
        obj: dict = {}
        while True:
            ln = self.peek()
            if ln is None or ln.indent < col:
                return obj
            if ln.indent > col:
                self.error(ln, ln.indent + 1, "bad-indent",
                           f"expected indentation {col}, found {ln.indent}")
            if ln.text.startswith("- ") or ln.text == "-":
                self.error(ln, col + 1, "unexpected-token", "list item outside an array")
            self.idx += 1
            key, after, keyend = self.parse_key(ln)
            if key in obj:
                self.error(ln, 1, "unexpected-token", f"duplicate key {key!r}")
            obj[key] = self.parse_keyline_value(ln, col, after, keyend, path + (key,))

    def parse_key(self, ln: _Line):
        """Returns (key, rest_of_line_after_key, column_after_key)."""
        text = ln.text
        if text.startswith('"'):
            key, consumed = self.parse_quoted(ln, 0)
            return key, text[consumed:], consumed
        for i, c in enumerate(text):
            if c in ":[":
                key = text[:i]
                if key == "" or key != key.strip(" "):
                    self.error(ln, ln.indent + 1, "unexpected-token", "malformed key")
                return key, text[i:], i
        self.error(ln, ln.indent + len(text) + 1, "unexpected-token",
                   "expected ':' after key")

    def parse_keyline_value(self, ln: _Line, col: int, after: str, keyend: int, path):
        if after.startswith("["):
            return self.parse_array_header(ln, col, after, keyend, path)
        if not after.startswith(":"):
            self.error(ln, ln.indent + keyend + 1, "unexpected-token",
                       "expected ':' after key")
        rest = after[1:]
        if rest == "":
            nxt = self.peek()
            if nxt is not None and nxt.indent > col:
                return self.parse_object(col + 2, path)
            return {}
        if not rest.startswith(" "):
            self.error(ln, ln.indent + keyend + 2, "unexpected-token",
                       "expected space after ':'")
        return self.parse_scalar(ln, rest[1:], ln.indent + keyend + 2)

    # -- arrays -------------------------------------------------------------

    _COUNT_RE = re.compile(r"\[(0|[1-9][0-9]*)\]")

    def parse_array_header(self, ln: _Line, col: int, after: str, keyend: int, path):
        m = self._COUNT_RE.match(after)
        if not m:
            self.error(ln, ln.indent + keyend + 2, "unexpected-token",
                       "malformed array count")
        count = int(m.group(1))
        rest = after[m.end():]
        if rest.startswith("{"):
            headers, consumed = self.parse_headers(ln, rest, ln.indent + keyend + m.end())
            rest = rest[consumed:]
            if rest != ":":
                self.error(ln, ln.indent + len(ln.text), "unexpected-token",
                           "expected ':' after tabular header")
            self.arrays[path] = ArrayInfo("tabular", count, headers)
            return self.parse_tabular_rows(ln, col + 2, count, headers, path)
        if rest != ":":
            self.error(ln, ln.indent + keyend + m.end() + 1, "unexpected-token",
                       "expected ':' after array count")
        self.arrays[path] = ArrayInfo("list", count)
        return self.parse_list_items(ln, col + 2, count, path)

    def parse_headers(self, ln: _Line, text: str, base_col: int):
        assert text.startswith("{")
        headers = []
        i = 1
        while True:
            if i >= len(text):
                self.error(ln, ln.indent + base_col + i, "unexpected-token",
                           "unterminated tabular header")
            if text[i] == '"':
                h, consumed = self.parse_quoted(ln, base_col + i, text[i:])
                headers.append(h)
                i += consumed
            else:
                j = i
                while j < len(text) and text[j] not in ",}":
                    j += 1
                cell = text[i:j]
                if cell == "" or cell != cell.strip(" "):
                    self.error(ln, ln.indent + base_col + i + 1, "unexpected-token",
                               "malformed header name")
                headers.append(cell)
                i = j
            if i >= len(text):
                self.error(ln, ln.indent + base_col + i, "unexpected-token",
                           "unterminated tabular header")
            if text[i] == ",":
                i += 1
                continue
            if text[i] == "}":
                break
            self.error(ln, ln.indent + base_col + i + 1, "unexpected-token",
                       "expected ',' or '}' in header")
        if len(set(headers)) != len(headers):
            self.error(ln, ln.indent + base_col + 1, "unexpected-token",
                       "duplicate header name")
        return tuple(headers), i + 1

    def parse_tabular_rows(self, header_ln: _Line, col: int, count: int, headers, path):
        rows = []
        while True:
            ln = self.peek()
            if ln is None or ln.indent < col:
                break
            if ln.indent > col:
                self.error(ln, ln.indent + 1, "bad-indent",
                           f"expected indentation {col}, found {ln.indent}")
            if len(rows) >= count:
                self.error(ln, ln.indent + 1, "count-mismatch",
                           f"declared {count} rows but found more")
            self.idx += 1
            cells = self.parse_row(ln)
            if len(cells) != len(headers):
                self.error(ln, ln.indent + 1, "arity-mismatch",
                           f"row has {len(cells)} cells, header has {len(headers)}")
            rows.append(dict(zip(headers, cells)))
        if len(rows) != count:
            self.error(header_ln, header_ln.indent + 1, "count-mismatch",
                       f"declared {count} rows but found {len(rows)}")
        return rows

    def parse_row(self, ln: _Line) -> list:
        text = ln.text
        cells = []
        i = 0
        while True:
            if i < len(text) and text[i] == '"':
                cell, consumed = self.parse_quoted(ln, i, text[i:])
                cells.append(cell)
                i += consumed
            else:
                j = i
                while j < len(text) and text[j] != ",":
                    j += 1
                raw = text[i:j]
                if raw == "" or raw != raw.strip(" "):
                    self.error(ln, ln.indent + i + 1, "unexpected-token",
                               "malformed bare cell")
                cells.append(_lex_bare_scalar(raw))
                i = j
            if i >= len(text):
                return cells
            if text[i] != ",":
                self.error(ln, ln.indent + i + 1, "unexpected-token",
                           "expected ',' between cells")
            i += 1

    def parse_list_items(self, header_ln: _Line, col: int, count: int, path):
        items = []
        while True:
            ln = self.peek()
            if ln is None or ln.indent < col:
                break
            if ln.indent > col:
                self.error(ln, ln.indent + 1, "bad-indent",
                           f"expected indentation {col}, found {ln.indent}")
            if not (ln.text == "-" or ln.text.startswith("- ")):
                break  # not an item line; let caller decide (likely an error upstream)
            if len(items) >= count:
                self.error(ln, ln.indent + 1, "count-mismatch",
                           f"declared {count} items but found more")
            self.idx += 1
            items.append(self.parse_item(ln, col, path + (len(items),)))
        if len(items) != count:
            self.error(header_ln, header_ln.indent + 1, "count-mismatch",
                       f"declared {count} items but found {len(items)}")
        return items

    def parse_item(self, ln: _Line, col: int, path):
        if ln.text == "-":
            return {}
        content = ln.text[2:]
        ccol = col + 2
        if content.startswith("["):
            # Nested keyless array.
            inner = _Line(ln.num, ccol, content)
            return self.parse_array_header(inner, ccol, content, 0, path)
        # Object item or scalar item: object iff an unquoted ':' / '[' splits a key.
        if content.startswith('"'):
            s, consumed = self.parse_quoted(ln, ccol, content)
            rest = content[consumed:]
            if rest == "":
                return s  # quoted scalar item
            inner = _Line(ln.num, ccol, content)
            first_val = self.parse_keyline_value(inner, ccol, rest, consumed, path + (s,))
            return self.finish_item_object(ccol, path, s, first_val, ln)
        for i, c in enumerate(content):
            if c in ":[":
                key = content[:i]
                if key == "" or key != key.strip(" "):
                    self.error(ln, ccol + 1, "unexpected-token", "malformed key")
                inner = _Line(ln.num, ccol, content)
                first_val = self.parse_keyline_value(inner, ccol, content[i:], i,
                                                     path + (key,))
                return self.finish_item_object(ccol, path, key, first_val, ln)
        return self.parse_scalar(ln, content, ccol)

    def finish_item_object(self, ccol: int, path, first_key, first_val, ln: _Line):
        obj = {first_key: first_val}
        while True:
            nxt = self.peek()
            if nxt is None or nxt.indent < ccol:
                return obj
            if nxt.indent > ccol:
                self.error(nxt, nxt.indent + 1, "bad-indent",
                           f"expected indentation {ccol}, found {nxt.indent}")
            if nxt.text == "-" or nxt.text.startswith("- "):
                return obj  # next item of the enclosing array... caller handles
            self.idx += 1
            key, after, keyend = self.parse_key(nxt)
            if key in obj:
                self.error(nxt, 1, "unexpected-token", f"duplicate key {key!r}")
            obj[key] = self.parse_keyline_value(nxt, ccol, after, keyend, path + (key,))

    # -- scalars ------------------------------------------------------------

    def parse_scalar(self, ln: _Line, text: str, col: int) -> Value:
        if text.startswith('"'):
            s, consumed = self.parse_quoted(ln, col, text)
            if consumed != len(text):
                self.error(ln, ln.indent + col + consumed + 1, "unexpected-token",
                           "trailing characters after quoted string")
            return s
        if text.startswith(" "):
            self.error(ln, ln.indent + col + 1, "unexpected-token",
                       "unquoted value starts with a space")
        return _lex_bare_scalar(text)

    def parse_quoted(self, ln: _Line, col: int, text: Optional[str] = None):
        """Parse a quoted string at the given content offset; returns (str, chars consumed)."""
        if text is None:
            text = ln.text[col:]
        assert text.startswith('"')
        out = []
        i = 1
        while i < len(text):
            c = text[i]
            if c == '"':
                return "".join(out), i + 1
            if c == "\\":
                if i + 1 >= len(text):
                    self.error(ln, ln.indent + col + i + 1, "bad-escape",
                               "unterminated escape")
                esc = text[i + 1]
                if esc in _ESCAPES:
                    out.append(_ESCAPES[esc])
                    i += 2
                elif esc == "u":
                    hexs = text[i + 2:i + 6]
                    if len(hexs) != 4 or not all(h in "0123456789abcdefABCDEF" for h in hexs):
                        self.error(ln, ln.indent + col + i + 1, "bad-escape",
                                   "invalid \\u escape")
                    out.append(chr(int(hexs, 16)))
                    i += 6
                else:
                    self.error(ln, ln.indent + col + i + 1, "bad-escape",
                               f"invalid escape \\{esc}")
            else:
                out.append(c)
                i += 1
        self.error(ln, ln.indent + col + len(text), "unexpected-token",
                   "unterminated quoted string")


def parse_toon(text: str) -> ToonDocument:
    """Parse TOON text (no code fences) into a ToonDocument."""
    parser = _ToonParser(text)
    try:
        return parser.parse_document()
    except ToonError:
        raise
    except ValueError as e:  # a numeral int() or float() cannot hold
        message = str(e)
    except RecursionError:
        message = "nesting too deep"
    ln = parser.lines[max(parser.idx - 1, 0)]
    raise ToonError(ln.num, ln.indent + 1, "unexpected-token", message) from None


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
