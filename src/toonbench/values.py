"""Structured-value tree, canonical JSON, and deep comparison.

Values are plain Python objects: ``None``, ``bool``, ``int``, ``float``,
``str``, ``dict`` (ordered, unique keys), ``list``.  Floats must be finite;
NaN and infinities are rejected everywhere.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Optional, Union

Value = Union[None, bool, int, float, str, dict, list]

PathSeg = Union[str, int]

DIFF_KINDS = (
    "missing-key",
    "extra-key",
    "type-mismatch",
    "value-mismatch",
    "length-mismatch",
)


@dataclass(frozen=True)
class DiffPath:
    """Location and kind of the first structural difference.

    An empty ``segments`` tuple means the root itself differs.
    """

    segments: tuple = ()
    kind: str = "value-mismatch"

    def __str__(self) -> str:
        loc = format_path(self.segments)
        return f"{loc}: {self.kind}"


def format_path(segments) -> str:
    if not segments:
        return "$"
    out = "$"
    for seg in segments:
        if isinstance(seg, int):
            out += f"[{seg}]"
        else:
            out += f".{seg}"
    return out


class JsonParseError(ValueError):
    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message


class DuplicateKeyError(ValueError):
    def __init__(self, segments, key: str, line: int, column: int):
        path = format_path(tuple(segments) + (key,))
        super().__init__(f"duplicate object key at {path} (line {line}, column {column})")
        self.segments = tuple(segments)
        self.key = key
        self.line = line
        self.column = column


# RFC 8259 numbers use ASCII digits only (str.isdigit also takes "١" and "²").
_DIGITS = frozenset("0123456789")


class _JsonParser:
    """Recursive-descent RFC 8259 parser with duplicate-key rejection.

    Hand-rolled instead of :mod:`json` so that duplicate keys carry a full
    path and errors carry 1-based line/column positions.
    """

    WS = " \t\n\r"

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _line_col(self, pos: int):
        line = self.text.count("\n", 0, pos) + 1
        nl = self.text.rfind("\n", 0, pos)
        col = pos - nl
        return line, col

    def fail(self, message: str, pos: Optional[int] = None):
        line, col = self._line_col(self.pos if pos is None else pos)
        raise JsonParseError(line, col, message)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in self.WS:
            self.pos += 1

    def peek(self) -> str:
        if self.pos >= len(self.text):
            self.fail("unexpected end of input")
        return self.text[self.pos]

    def expect(self, ch: str):
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            self.fail(f"expected {ch!r}")
        self.pos += 1

    def parse(self) -> Value:
        self.skip_ws()
        v = self.parse_value(())
        self.skip_ws()
        if self.pos != len(self.text):
            self.fail("trailing data after document")
        return v

    def parse_value(self, path) -> Value:
        ch = self.peek()
        if ch == "{":
            return self.parse_object(path)
        if ch == "[":
            return self.parse_array(path)
        if ch == '"':
            return self.parse_string()
        if ch == "t":
            self.parse_literal("true")
            return True
        if ch == "f":
            self.parse_literal("false")
            return False
        if ch == "n":
            self.parse_literal("null")
            return None
        if ch == "-" or ch in _DIGITS:
            return self.parse_number()
        self.fail(f"unexpected character {ch!r}")

    def parse_literal(self, lit: str):
        if not self.text.startswith(lit, self.pos):
            self.fail(f"expected {lit!r}")
        self.pos += len(lit)

    def parse_object(self, path) -> dict:
        self.expect("{")
        obj: dict = {}
        self.skip_ws()
        if self.peek() == "}":
            self.pos += 1
            return obj
        while True:
            self.skip_ws()
            key_pos = self.pos
            if self.peek() != '"':
                self.fail("expected string key")
            key = self.parse_string()
            if key in obj:
                line, col = self._line_col(key_pos)
                raise DuplicateKeyError(path, key, line, col)
            self.skip_ws()
            self.expect(":")
            self.skip_ws()
            obj[key] = self.parse_value(path + (key,))
            self.skip_ws()
            ch = self.peek()
            if ch == ",":
                self.pos += 1
                continue
            if ch == "}":
                self.pos += 1
                return obj
            self.fail("expected ',' or '}' in object")

    def parse_array(self, path) -> list:
        self.expect("[")
        arr: list = []
        self.skip_ws()
        if self.peek() == "]":
            self.pos += 1
            return arr
        while True:
            self.skip_ws()
            arr.append(self.parse_value(path + (len(arr),)))
            self.skip_ws()
            ch = self.peek()
            if ch == ",":
                self.pos += 1
                continue
            if ch == "]":
                self.pos += 1
                return arr
            self.fail("expected ',' or ']' in array")

    _ESCAPES = {'"': '"', "\\": "\\", "/": "/", "b": "\b", "f": "\f",
                "n": "\n", "r": "\r", "t": "\t"}

    def parse_string(self) -> str:
        self.expect('"')
        out = []
        while True:
            if self.pos >= len(self.text):
                self.fail("unterminated string")
            ch = self.text[self.pos]
            if ch == '"':
                self.pos += 1
                return "".join(out)
            if ch == "\\":
                self.pos += 1
                if self.pos >= len(self.text):
                    self.fail("unterminated escape")
                esc = self.text[self.pos]
                if esc in self._ESCAPES:
                    out.append(self._ESCAPES[esc])
                    self.pos += 1
                elif esc == "u":
                    hexs = self.text[self.pos + 1:self.pos + 5]
                    if len(hexs) != 4:
                        self.fail("truncated \\u escape")
                    try:
                        cp = int(hexs, 16)
                    except ValueError:
                        self.fail("invalid \\u escape")
                    self.pos += 5
                    if 0xD800 <= cp <= 0xDBFF and self.text.startswith("\\u", self.pos):
                        lows = self.text[self.pos + 2:self.pos + 6]
                        try:
                            low = int(lows, 16)
                        except ValueError:
                            low = -1
                        if 0xDC00 <= low <= 0xDFFF:
                            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00)
                            self.pos += 6
                    out.append(chr(cp))
                else:
                    self.fail(f"invalid escape \\{esc}")
            elif ord(ch) < 0x20:
                self.fail("raw control character in string")
            else:
                out.append(ch)
                self.pos += 1

    def parse_number(self) -> Union[int, float]:
        start = self.pos
        t = self.text
        if self.pos < len(t) and t[self.pos] == "-":
            self.pos += 1
        if self.pos >= len(t) or t[self.pos] not in _DIGITS:
            self.fail("invalid number")
        if t[self.pos] == "0":
            self.pos += 1
        else:
            while self.pos < len(t) and t[self.pos] in _DIGITS:
                self.pos += 1
        is_float = False
        if self.pos < len(t) and t[self.pos] == ".":
            is_float = True
            self.pos += 1
            if self.pos >= len(t) or t[self.pos] not in _DIGITS:
                self.fail("digits required after decimal point")
            while self.pos < len(t) and t[self.pos] in _DIGITS:
                self.pos += 1
        if self.pos < len(t) and t[self.pos] in "eE":
            is_float = True
            self.pos += 1
            if self.pos < len(t) and t[self.pos] in "+-":
                self.pos += 1
            if self.pos >= len(t) or t[self.pos] not in _DIGITS:
                self.fail("digits required in exponent")
            while self.pos < len(t) and t[self.pos] in _DIGITS:
                self.pos += 1
        lexeme = t[start:self.pos]
        if is_float:
            f = float(lexeme)
            if not math.isfinite(f):
                self.fail("number out of finite float range", start)
            return f
        return int(lexeme)


def parse_json(text: str) -> Value:
    """Parse an RFC 8259 document into a Value.

    Exponent-free, fraction-free numerals parse as ``int``; anything else
    numeric parses as ``float``.  Duplicate object keys raise
    :class:`DuplicateKeyError`.
    """
    return _JsonParser(text).parse()


def check_value(v: Value, _path=()):
    """Raise ValueError if *v* is not a well-formed Value."""
    if v is None or isinstance(v, (bool, int, str)):
        return
    if isinstance(v, float):
        if not math.isfinite(v):
            raise ValueError(f"non-finite float at {format_path(_path)}")
        return
    if isinstance(v, dict):
        for k, child in v.items():
            if not isinstance(k, str):
                raise ValueError(f"non-string key at {format_path(_path)}")
            check_value(child, _path + (k,))
        return
    if isinstance(v, list):
        for i, child in enumerate(v):
            check_value(child, _path + (i,))
        return
    raise ValueError(f"unsupported value type {type(v).__name__} at {format_path(_path)}")


def emit_canonical_json(v: Value) -> str:
    """Deterministic canonical JSON: sorted keys, no whitespace, shortest floats."""
    check_value(v)
    return json.dumps(v, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False, allow_nan=False)


def canonicalize(v: Value) -> Value:
    """Recursively sort object keys and fold zero-fraction floats to ints."""
    if isinstance(v, bool) or v is None or isinstance(v, (int, str)):
        return v
    if isinstance(v, float):
        if not math.isfinite(v):
            raise ValueError("non-finite float")
        if v.is_integer():
            return int(v)
        return v
    if isinstance(v, dict):
        return {k: canonicalize(v[k]) for k in sorted(v)}
    if isinstance(v, list):
        return [canonicalize(x) for x in v]
    raise ValueError(f"unsupported value type {type(v).__name__}")


def _scalar_kind(v: Value) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "bool"
    if isinstance(v, (int, float)):
        return "number"
    if isinstance(v, str):
        return "string"
    if isinstance(v, dict):
        return "object"
    return "array"


def _first_diff(a: Value, b: Value, path) -> Optional[DiffPath]:
    ka, kb = _scalar_kind(a), _scalar_kind(b)
    if ka != kb:
        return DiffPath(tuple(path), "type-mismatch")
    if ka == "object":
        akeys, bkeys = set(a), set(b)
        for k in sorted(akeys | bkeys):
            if k not in b:
                return DiffPath(tuple(path) + (k,), "missing-key")
            if k not in a:
                return DiffPath(tuple(path) + (k,), "extra-key")
            d = _first_diff(a[k], b[k], path + [k])
            if d is not None:
                return d
        return None
    if ka == "array":
        if len(a) != len(b):
            return DiffPath(tuple(path), "length-mismatch")
        for i, (x, y) in enumerate(zip(a, b)):
            d = _first_diff(x, y, path + [i])
            if d is not None:
                return d
        return None
    if a != b:
        return DiffPath(tuple(path), "value-mismatch")
    return None


def deep_equal(a: Value, b: Value):
    """Structural equality on canonicalized values.

    Returns ``(True, None)`` or ``(False, DiffPath)`` for the first
    difference in depth-first key-sorted order.  ``2`` and ``2.0`` compare
    equal; ``True`` and ``1`` do not.
    """
    d = _first_diff(canonicalize(a), canonicalize(b), [])
    return (d is None, d)
