"""Structured-value tree, canonical JSON, and deep comparison.

Values are plain Python objects: ``None``, ``bool``, ``int``, ``float``,
``str``, ``dict`` (ordered, unique keys), ``list``.  Floats must be finite;
NaN and infinities are rejected everywhere.  :func:`kind` names a Value's
kind and is the one type dispatch of the package: ``check_value``,
``deep_equal`` and ``schemas.validate`` all walk with it.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from typing import Optional, Union

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


def _unique_pairs(pairs):
    obj = dict(pairs)
    if len(obj) != len(pairs):
        raise ValueError("duplicate key")
    return obj


def _refuse_constant(name):
    raise ValueError(f"non-finite constant {name}")


def _finite_float(lexeme):
    f = float(lexeme)
    if math.isinf(f):
        raise ValueError("number out of finite float range")
    return f


# The fast path: json plus hooks that refuse what it accepts and a Value must
# not hold.  _TOKEN is one token of RFC 8259 or a NaN/Infinity json accepts.
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_pairs,
                            parse_constant=_refuse_constant,
                            parse_float=_finite_float)
_TOKEN = re.compile(r"""[ \t\n\r]*(?:
    (?P<string>"[^"\\]*(?:\\.[^"\\]*)*") | -?(?P<constant>NaN|Infinity)
  | (?P<number>-?(?:0|[1-9][0-9]*)(?P<float>(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?))
  | (?P<open>[{\[]) | (?P<close>[\]}]) | (?P<comma>,) | : | true | false | null)""",
                    re.VERBOSE | re.DOTALL)


_SURROGATE = re.compile("[\ud800-\udfff]")


def _line_col(text: str, pos: int):
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _first_refusal(text: str, end: int):
    """Scan the tokens that end by ``end``, a prefix json has decoded, for
    the first duplicate key, non-finite constant, overflowing number or
    string holding a lone surrogate, as an escape or as a raw character.

    Returns ``(error or None, start of the first container opened at the
    deepest nesting seen)``.  The scan also stops at text json rejects."""
    keys = []  # per open container: the keys of an object, None for an array
    path = []  # per open container: the key or index of the current child
    prev, deepest, deepest_at, pos = None, 0, 0, 0
    while True:
        m = _TOKEN.match(text, pos)
        if m is None or m.end() > end:
            return None, deepest_at
        pos, token = m.end(), m.lastgroup
        if token == "open":
            keys.append(set() if m.group(token) == "{" else None)
            path.append(0)
            if len(keys) > deepest:
                deepest, deepest_at = len(keys), m.start(token)
        elif token in ("close", "comma") and not keys:
            return None, deepest_at
        elif token == "close":
            keys.pop()
            path.pop()
        elif token == "comma":
            if keys[-1] is None:
                path[-1] += 1
        elif token == "string":
            raw = m.group(token)
            is_key = prev in ("open", "comma") and keys[-1] is not None
            if is_key or "\\u" in raw or not raw.isascii():
                try:
                    string = json.decoder.scanstring(raw, 1)[0]
                except ValueError:
                    return None, deepest_at
                if _SURROGATE.search(string):
                    what = "character" if _SURROGATE.search(raw) else "escape"
                    return JsonParseError(*_line_col(text, m.start(token)),
                                          f"lone surrogate {what}"), deepest_at
                if is_key:
                    if string in keys[-1]:
                        return DuplicateKeyError(path[:-1], string,
                                                 *_line_col(text, m.start(token))), deepest_at
                    keys[-1].add(string)
                    path[-1] = string
        elif token == "constant":
            return JsonParseError(*_line_col(text, m.start(token)),
                                  f"non-finite constant {m.group(token)}"), deepest_at
        elif token == "number":
            try:
                (_finite_float if m.group("float") else int)(m.group(token))
            except ValueError as e:
                return JsonParseError(*_line_col(text, m.start(token)), str(e)), deepest_at
        prev = token


def parse_json(text: str) -> Value:
    """Parse an RFC 8259 document into a Value.

    Exponent-free, fraction-free numerals parse as ``int``; anything else
    numeric parses as ``float``.  Duplicate object keys raise
    :class:`DuplicateKeyError`; any other malformed input, including
    NaN/Infinity, numbers that overflow and nesting deeper than the decoder
    recurses, raises :class:`JsonParseError`.  Errors carry the 1-based line
    and column of the first problem in document order.
    """
    try:
        value = _DECODER.decode(text)
    except json.JSONDecodeError as e:
        error = (_first_refusal(text, e.pos)[0]
                 or JsonParseError(e.lineno, e.colno, e.msg))
    except RecursionError:
        error, deepest_at = _first_refusal(text, len(text))
        error = error or JsonParseError(*_line_col(text, deepest_at), "nesting too deep")
    except ValueError:  # a hook refused, or int() met too many digits
        error = _first_refusal(text, len(text))[0]
        if error is None:
            raise
    else:  # json joins a surrogate pair and keeps a lone surrogate, escaped or raw
        error = (("\\u" in text or not text.isascii() and _SURROGATE.search(text))
                 and _first_refusal(text, len(text))[0])
        if not error:
            return value
    raise error from None


# A Value's kind by its exact type; ``kind`` looks a subclass up by isinstance.
_KINDS = {type(None): "null", bool: "bool", int: "int", float: "float",
          str: "str", dict: "object", list: "array"}
_NUMBERS = ("int", "float")  # one kind to deep_equal


def kind(v: Value) -> str:
    """The kind of ``v``: ``null``, ``bool``, ``int``, ``float``, ``str``,
    ``object`` or ``array``.  Raises ValueError on a non-finite float or a
    type that is not a Value's."""
    found = _KINDS.get(type(v))
    if found is None:
        found = next((k for t, k in _KINDS.items() if isinstance(v, t)), None)
        if found is None:
            raise ValueError(f"unsupported value type {type(v).__name__}")
    if found == "float" and not math.isfinite(v):
        raise ValueError("non-finite float")
    return found


def check_value(v: Value, _path=()):
    """Raise ValueError if *v* is not a well-formed Value."""
    try:
        found = kind(v)
    except ValueError as e:
        raise ValueError(f"{e} at {format_path(_path)}") from None
    if found == "object":
        for k, child in v.items():
            if not isinstance(k, str):
                raise ValueError(f"non-string key at {format_path(_path)}")
            check_value(child, _path + (k,))
    elif found == "array":
        for i, child in enumerate(v):
            check_value(child, _path + (i,))


def emit_canonical_json(v: Value) -> str:
    """Deterministic canonical JSON: sorted keys, no whitespace, shortest floats."""
    check_value(v)
    return json.dumps(v, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False, allow_nan=False)


def _check(*vs) -> None:
    """Raise ValueError where ``kind`` would, at any depth of ``vs``."""
    for v in vs:
        found = kind(v)
        if found == "object":
            _check(*v.values())
        elif found == "array":
            _check(*v)


def _first_diff(a: Value, b: Value, path: tuple) -> Optional[DiffPath]:
    """The first difference in depth-first key-sorted order.  The walk goes
    on past it, so that every node of both inputs is checked once."""
    ka, kb = kind(a), kind(b)
    if ka != kb and not (ka in _NUMBERS and kb in _NUMBERS):
        _check(a, b)
        return DiffPath(path, "type-mismatch")
    diff = None
    if ka == "object":
        for k in sorted(a.keys() | b.keys()):
            if k not in b:
                _check(a[k])
                d = DiffPath(path + (k,), "missing-key")
            elif k not in a:
                _check(b[k])
                d = DiffPath(path + (k,), "extra-key")
            else:
                d = _first_diff(a[k], b[k], path + (k,))
            diff = diff or d
    elif ka == "array":
        if len(a) != len(b):
            _check(a, b)
            return DiffPath(path, "length-mismatch")
        for i, (x, y) in enumerate(zip(a, b)):
            d = _first_diff(x, y, path + (i,))
            diff = diff or d
    elif a != b:
        diff = DiffPath(path, "value-mismatch")
    return diff


def deep_equal(a: Value, b: Value):
    """Structural equality: object key order does not count, and a number
    compares by its value.

    Returns ``(True, None)`` or ``(False, DiffPath)`` for the first
    difference in depth-first key-sorted order.  ``2`` and ``2.0`` compare
    equal; ``True`` and ``1`` do not.  Raises ValueError on a non-finite
    float or an unsupported type anywhere in either input, without copying
    them.
    """
    d = _first_diff(a, b, ())
    return (d is None, d)
