"""Structural schemas, the built-in benchmark cases, validation, gold writers."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Union

from .toon import _INT_RE, _NUM_RE, encode_toon
from .values import _KINDS, Value, emit_canonical_json, format_path, kind


# The validation rules: where a schema kind is expected, the value kinds
# admitted, each with the test a value of that kind must also pass (None:
# every such value).  Numeric strings satisfy Int/FloatType, ints satisfy
# FloatType, and zero-fraction floats satisfy IntType.
_RULES = {
    "int": {"int": None, "float": float.is_integer, "str": _INT_RE.match},
    "float": {"int": None, "float": math.isfinite, "str": _NUM_RE.match},
    "str": {"str": None},
    "bool": {"bool": None},
    "object": {"object": None},
    "array": {"array": None},
}


def _refuse(v) -> bool:
    return False


class _Node:
    """A schema node's checker, built once from ``_RULES`` and kept on it.

    ``_check(v, path, errors)`` appends to ``errors`` what ``validate``
    reports for ``v`` at ``path``.  The rule for ``v`` is first looked up by
    its exact type.  Only a value that fails it is named by ``kind``, which
    names a subclass's kind and raises on a non-Value or a non-finite float
    (which fails both ``math.isfinite`` and ``float.is_integer``)."""

    @cached_property
    def _check(self):
        expected = self.kind
        rules = _RULES[expected]
        by_type = {t: rules[k] for t, k in _KINDS.items() if k in rules}
        walk = (_object_walk(self.fields) if expected == "object"
                else _array_walk(self.element) if expected == "array" else None)

        def check(v, path, errors):
            rule = by_type.get(type(v), _refuse)
            if not (rule is None or rule(v)):
                found = kind(v)
                rule = rules.get(found, _refuse)
                if not (rule is None or rule(v)):
                    errors.append(ValidationError(path, expected, found))
                    return
            if walk is not None:
                walk(v, path, errors)
        return check


def _object_walk(fields):
    known = frozenset(name for name, _ in fields)
    fields = tuple((name, fs.kind, fs._check) for name, fs in fields)

    def walk(v, path, errors):
        for name, expected, check in fields:
            if name in v:
                check(v[name], path + (name,), errors)
            else:
                errors.append(ValidationError(path + (name,), expected, "missing"))
        if not known.issuperset(v):
            for name in v:
                if name not in known:
                    errors.append(ValidationError(path + (name,), "absent", "extra field"))
    return walk


def _array_walk(element):
    check = element._check

    def walk(v, path, errors):
        for i, item in enumerate(v):
            check(item, path + (i,), errors)
    return walk


@dataclass(frozen=True)
class IntType(_Node):
    kind: str = "int"


@dataclass(frozen=True)
class FloatType(_Node):
    kind: str = "float"


@dataclass(frozen=True)
class StrType(_Node):
    kind: str = "str"


@dataclass(frozen=True)
class BoolType(_Node):
    kind: str = "bool"


@dataclass(frozen=True)
class ObjectType(_Node):
    fields: tuple = ()  # tuple of (name, Schema); all required
    kind: str = "object"


@dataclass(frozen=True)
class ArrayType(_Node):
    element: "Schema" = None
    kind: str = "array"


Schema = Union[IntType, FloatType, StrType, BoolType, ObjectType, ArrayType]


@dataclass(frozen=True)
class ValidationError:
    path: tuple
    expected: str
    found: str

    def __str__(self) -> str:
        return f"{format_path(self.path)}: expected {self.expected}, found {self.found}"


def validate(v: Value, s: Schema, _path=()) -> list:
    """Structural validation with lenient numeric coercion (``_RULES``).

    All object fields are required and unknown extras are errors.  Returns
    a list of ValidationError (empty means valid), in depth-first schema
    order with each object's extras after its fields.  Raises ValueError
    where ``values.kind`` does, on a part of ``v`` that is not a Value.
    """
    errors: list = []
    s._check(v, _path, errors)
    return errors


@dataclass(frozen=True)
class CaseSpec:
    name: str
    task_body: str  # J/JSO prompt text, verbatim
    toon_task_body: str  # task section of the T prompt
    schema: Schema
    gold: Value = field(hash=False)

    def __post_init__(self):
        # the harness judges a valid answer equal to the gold by ``==``, which
        # is exact only when the gold's kinds are the schema's too
        errors = validate(self.gold, self.schema)
        if errors:
            raise ValueError(f"case {self.name!r}: gold does not conform to its schema: "
                             + "; ".join(map(str, errors)))


def _obj(*fields) -> ObjectType:
    return ObjectType(tuple(fields))


_ORDER_TASK = """Create an order record:
- Order ID: 101
- Customer: Ada (ID: 9)
- Items:
  * Product A1: quantity 2, price $9.99 each
  * Product B2: quantity 1, price $14.50 each

Return as JSON with fields for id, customer (with id and name),
and items array (with sku, qty, price).
"""

_ORDER_TOON_TASK = """Create an order record with fields: id, customer (with id and name),
and items array (with sku, qty, price).
- Order ID: 101
- Customer: Ada (ID: 9)
- Items:
  * Product A1: quantity 2, price $9.99 each
  * Product B2: quantity 1, price $14.50 each
"""

_ORDER_SCHEMA = _obj(
    ("id", IntType()),
    ("customer", _obj(("id", IntType()), ("name", StrType()))),
    ("items", ArrayType(_obj(("sku", StrType()), ("qty", IntType()), ("price", FloatType())))),
)

_ORDER_GOLD = {
    "id": 101,
    "customer": {"id": 9, "name": "Ada"},
    "items": [
        {"sku": "A1", "qty": 2, "price": 9.99},
        {"sku": "B2", "qty": 1, "price": 14.50},
    ],
}

_USERS_TASK = """Create a user directory record:
- Users:
  * User 1: Ada Lovelace, ada@example.com, admin
  * User 2: Grace Hopper, grace@example.com, editor
  * User 3: Alan Turing, alan@example.com, viewer
  * User 4: Edsger Dijkstra, edsger@example.com, viewer

Return as JSON with a users array (with id, name, email, role).
"""

_USERS_TOON_TASK = """Create a user directory record with a users array (with id, name, email, role).
- Users:
  * User 1: Ada Lovelace, ada@example.com, admin
  * User 2: Grace Hopper, grace@example.com, editor
  * User 3: Alan Turing, alan@example.com, viewer
  * User 4: Edsger Dijkstra, edsger@example.com, viewer
"""

_USERS_SCHEMA = _obj(
    ("users", ArrayType(_obj(
        ("id", IntType()),
        ("name", StrType()),
        ("email", StrType()),
        ("role", StrType()),
    ))),
)

_USERS_GOLD = {
    "users": [
        {"id": 1, "name": "Ada Lovelace", "email": "ada@example.com", "role": "admin"},
        {"id": 2, "name": "Grace Hopper", "email": "grace@example.com", "role": "editor"},
        {"id": 3, "name": "Alan Turing", "email": "alan@example.com", "role": "viewer"},
        {"id": 4, "name": "Edsger Dijkstra", "email": "edsger@example.com", "role": "viewer"},
    ],
}

_COMPANY_TASK = """Create a company record:
- Company: Initech
- Departments:
  * Engineering
    - Team Platform: employees Ada (ID 1, title Principal), Grace (ID 2, title Staff)
    - Team Product: employees Alan (ID 3, title Senior)
  * Sales
    - Team EMEA: employees Edsger (ID 4, title Lead), Barbara (ID 5, title Account), Donald (ID 6, title Account)

Return as JSON with fields for name and departments array (each with name
and teams array, each team with name and employees array with id, name, title).
"""

_COMPANY_TOON_TASK = """Create a company record with fields: name and departments array (each with name
and teams array, each team with name and employees array with id, name, title).
- Company: Initech
- Departments:
  * Engineering
    - Team Platform: employees Ada (ID 1, title Principal), Grace (ID 2, title Staff)
    - Team Product: employees Alan (ID 3, title Senior)
  * Sales
    - Team EMEA: employees Edsger (ID 4, title Lead), Barbara (ID 5, title Account), Donald (ID 6, title Account)
"""

_COMPANY_SCHEMA = _obj(
    ("name", StrType()),
    ("departments", ArrayType(_obj(
        ("name", StrType()),
        ("teams", ArrayType(_obj(
            ("name", StrType()),
            ("employees", ArrayType(_obj(
                ("id", IntType()),
                ("name", StrType()),
                ("title", StrType()),
            ))),
        ))),
    ))),
)

_COMPANY_GOLD = {
    "name": "Initech",
    "departments": [
        {
            "name": "Engineering",
            "teams": [
                {"name": "Platform", "employees": [
                    {"id": 1, "name": "Ada", "title": "Principal"},
                    {"id": 2, "name": "Grace", "title": "Staff"},
                ]},
                {"name": "Product", "employees": [
                    {"id": 3, "name": "Alan", "title": "Senior"},
                ]},
            ],
        },
        {
            "name": "Sales",
            "teams": [
                {"name": "EMEA", "employees": [
                    {"id": 4, "name": "Edsger", "title": "Lead"},
                    {"id": 5, "name": "Barbara", "title": "Account"},
                    {"id": 6, "name": "Donald", "title": "Account"},
                ]},
            ],
        },
    ],
}

_INVOICE_TASK = """Create an invoice record:
- Invoice ID: 2024
- Customer: Bob (ID 7)
- Items:
  * Widget: quantity 2, price $3.50 each
  * Gadget: quantity 1, price $10.25 each
  * Gizmo: quantity 3, price $1.50 each
- Totals: subtotal is the sum of quantity times price per item; no tax is
  applied, so total equals subtotal.

Return as JSON with fields for id, customer (with id and name), items array
(with desc, qty, price), and totals (with subtotal, total).
"""

_INVOICE_TOON_TASK = """Create an invoice record with fields: id, customer (with id and name), items array
(with desc, qty, price), and totals (with subtotal, total).
- Invoice ID: 2024
- Customer: Bob (ID 7)
- Items:
  * Widget: quantity 2, price $3.50 each
  * Gadget: quantity 1, price $10.25 each
  * Gizmo: quantity 3, price $1.50 each
- Totals: subtotal is the sum of quantity times price per item; no tax is
  applied, so total equals subtotal.
"""

_INVOICE_SCHEMA = _obj(
    ("id", IntType()),
    ("customer", _obj(("id", IntType()), ("name", StrType()))),
    ("items", ArrayType(_obj(("desc", StrType()), ("qty", IntType()), ("price", FloatType())))),
    ("totals", _obj(("subtotal", FloatType()), ("total", FloatType()))),
)

# subtotal = 2*3.50 + 1*10.25 + 3*1.50 = 21.75; all terms binary-exact
_INVOICE_GOLD = {
    "id": 2024,
    "customer": {"id": 7, "name": "Bob"},
    "items": [
        {"desc": "Widget", "qty": 2, "price": 3.50},
        {"desc": "Gadget", "qty": 1, "price": 10.25},
        {"desc": "Gizmo", "qty": 3, "price": 1.50},
    ],
    "totals": {"subtotal": 21.75, "total": 21.75},
}

CASE_NAMES = ("users", "order", "company", "invoice")

_CASES = (
    CaseSpec("users", _USERS_TASK, _USERS_TOON_TASK, _USERS_SCHEMA, _USERS_GOLD),
    CaseSpec("order", _ORDER_TASK, _ORDER_TOON_TASK, _ORDER_SCHEMA, _ORDER_GOLD),
    CaseSpec("company", _COMPANY_TASK, _COMPANY_TOON_TASK, _COMPANY_SCHEMA, _COMPANY_GOLD),
    CaseSpec("invoice", _INVOICE_TASK, _INVOICE_TOON_TASK, _INVOICE_SCHEMA, _INVOICE_GOLD),
)


def builtin_cases() -> list:
    """The four benchmark cases, in canonical order."""
    return list(_CASES)


def get_case(name: str) -> CaseSpec:
    for case in _CASES:
        if case.name == name:
            return case
    raise KeyError(f"unknown case {name!r} (expected one of {CASE_NAMES})")


def write_gold(case: CaseSpec, directory) -> list:
    """Write <name>.gold.json and <name>.gold.toon; returns the paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    json_path = directory / f"{case.name}.gold.json"
    toon_path = directory / f"{case.name}.gold.toon"
    try:
        json_path.write_text(emit_canonical_json(case.gold) + "\n", encoding="utf-8")
        toon_text = encode_toon(case.gold)
        if not toon_text.endswith("\n"):
            toon_text += "\n"
        toon_path.write_text(toon_text, encoding="utf-8")
    except OSError as e:
        raise OSError(f"writing gold files under {directory}: {e}") from e
    return [json_path, toon_path]
