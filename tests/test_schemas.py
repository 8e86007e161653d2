"""Schemas, lenient validation, the built-in cases, and gold file output."""

import copy
import dataclasses
import enum
import json
import math
import random
from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from toonbench.schemas import (ArrayType, BoolType, CASE_NAMES, FloatType,
                               IntType, ObjectType, StrType, ValidationError,
                               builtin_cases, get_case, validate, write_gold)
from toonbench.toon import _INT_RE, _NUM_RE, encode_toon, parse_toon
from toonbench.values import deep_equal, kind, parse_json


USER = ObjectType(fields=(("id", IntType()), ("name", StrType())))


# -- validation --------------------------------------------------------------


def test_scalar_leniency():
    assert validate("7", IntType()) == []
    assert validate(2.0, IntType()) == []
    assert validate(2.5, IntType()) != []
    assert validate(3, FloatType()) == []
    assert validate("3.5", FloatType()) == []
    assert validate("x", FloatType()) != []
    assert validate(True, BoolType()) == []


def test_numeric_strings_take_ascii_digits_only():
    assert validate("12", IntType()) == []
    assert validate("\u0661\u0662", IntType()) != []
    assert validate("\uff13.5", FloatType()) != []
    assert validate("1e\u00b2", FloatType()) != []


def test_bool_is_not_an_int():
    errs = validate(True, IntType())
    assert len(errs) == 1 and "bool" in str(errs[0])


def test_missing_and_extra_fields():
    errs = validate({"id": 1}, USER)
    assert any("name" in str(e) and "missing" in str(e) for e in errs)
    errs = validate({"id": 1, "name": "a", "zz": 0}, USER)
    assert any("zz" in str(e) and "extra" in str(e) for e in errs)


def test_error_paths_are_nested():
    schema = ObjectType(fields=(("users", ArrayType(USER)),))
    errs = validate({"users": [{"id": 1, "name": "a"}, {"id": "x", "name": 3}]},
                    schema)
    rendered = "\n".join(str(e) for e in errs)
    assert "$.users[1].id" in rendered and "$.users[1].name" in rendered


def test_all_errors_reported_not_just_first():
    errs = validate({"id": None, "name": None}, USER)
    assert len(errs) == 2


@pytest.mark.parametrize("value, schema", [
    (math.nan, FloatType()),
    (math.inf, IntType()),
    ((1, 2), ArrayType(IntType())),
    ({"id": 1, "name": ("a",)}, USER),
    ([{"id": -math.inf, "name": "a"}], ArrayType(USER)),
])
def test_validate_raises_on_what_is_not_a_value(value, schema):
    """As deep_equal does, where it used to report a type error or none."""
    with pytest.raises(ValueError):
        validate(value, schema)


def oracle_validate(v, s, _path=()) -> list:
    """``validate`` as it was before each schema node built its own checker,
    verbatim but for this name in the recursive call."""
    expected, found = s.kind, kind(v)
    if expected == "int":
        ok = (found == "int" or (found == "float" and v.is_integer())
              or (found == "str" and _INT_RE.match(v)))
    elif expected == "float":
        ok = found in ("int", "float") or (found == "str" and _NUM_RE.match(v))
    elif expected in ("str", "bool", "object", "array"):
        ok = found == expected
    else:  # pragma: no cover
        raise ValueError(f"unknown schema kind {expected!r}")
    errors: list = []
    if not ok:
        errors.append(ValidationError(_path, expected, found))
    elif found == "object":
        for name, fs in s.fields:
            if name not in v:
                errors.append(ValidationError(_path + (name,), fs.kind, "missing"))
            else:
                errors.extend(oracle_validate(v[name], fs, _path + (name,)))
        known = dict(s.fields)
        for name in v:
            if name not in known:
                errors.append(ValidationError(_path + (name,), "absent", "extra field"))
    elif found == "array":
        for i, item in enumerate(v):
            errors.extend(oracle_validate(item, s.element, _path + (i,)))
    return errors


class Num(enum.IntEnum):
    TWO = 2


class Text(str):
    pass


# What a node may be replaced by: every kind, the numbers each numeric rule
# admits or refuses, numeric strings, subclasses and what is not a Value.
SUBSTITUTES = (True, False, 0, 1, 2, 2.0, 2.5, -0.0, 10**30, "2", "-2.5e3",
               "2.", "x", "", "\u0662", None, math.nan, math.inf, -math.inf,
               (1, 2), Num.TWO, Text("7"), Text("Ada"), [], {}, [1], {"id": 1})


def _nodes(v, path=()):
    yield path, v
    if type(v) in (dict, OrderedDict):
        for k, child in v.items():
            yield from _nodes(child, path + (k,))
    elif type(v) is list:
        for i, child in enumerate(v):
            yield from _nodes(child, path + (i,))


def _mutated(node, rng: random.Random):
    """``node`` with one change: a substitute, a flip between True and 1 or
    2 and 2.0, a numeric string, an equal subclass, a tuple, or a missing,
    extra or renamed key or an array one longer or shorter."""
    pick = rng.randrange(4)
    if isinstance(node, dict) and pick < 3:
        out = OrderedDict(node) if pick == 0 else dict(node)
        keys = list(out)
        if pick == 1 and keys:
            del out[rng.choice(keys)]
        elif pick == 2:
            name = rng.choice(keys + ["extra"]) + "_"
            if keys and rng.random() < 0.5:  # renamed, in its place
                old = rng.choice(keys)
                out = dict((name if k == old else k, c) for k, c in out.items())
            else:
                out[name] = rng.choice(SUBSTITUTES)
        return out
    if isinstance(node, list) and pick < 3:
        if pick == 0:
            return tuple(node)
        return node[:-1] if pick == 1 else node + node[-1:] * rng.randrange(1, 3)
    if type(node) in (int, float, bool) and pick < 3:
        number = int(node) if type(node) is bool else node
        if pick == 0:
            return str(number)
        if pick == 1:
            return (bool(number) if type(node) is not bool
                    else float(number) if rng.random() < 0.5 else int(number))
        return float(number) if type(node) is int else Num.TWO
    if type(node) is str and pick < 2:
        return Text(node) if pick == 0 else node + "x"
    return rng.choice(SUBSTITUTES)


def _with(v, path, new):
    if not path:
        return new
    head, *rest = path
    v = copy.copy(v)
    v[head] = _with(v[head], tuple(rest), new)
    return v


def _outcome(check, v, schema):
    try:
        return check(v, schema)
    except Exception as e:  # the type is compared, as check's result is
        return type(e)


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_validate_agrees_with_the_walk_it_replaced(seed):
    """Differential: the same errors, in the same order, or the same
    exception type, on mutations of the four golds (and now and then a gold
    against another case's schema)."""
    rng = random.Random(seed)
    cases = builtin_cases()
    case = rng.choice(cases)
    schema = case.schema if rng.random() < 0.9 else rng.choice(cases).schema
    v = case.gold
    for _ in range(rng.randrange(1, 4)):
        path, node = rng.choice(list(_nodes(v)))
        v = _with(v, path, _mutated(node, rng))
    assert _outcome(validate, v, schema) == _outcome(oracle_validate, v, schema)


def test_validate_agrees_with_the_walk_it_replaced_on_each_substitute():
    for schema in (IntType(), FloatType(), StrType(), BoolType(), USER,
                   ArrayType(IntType())):
        for value in SUBSTITUTES:
            for v, s in ((value, schema), ({"id": value, "name": value}, USER),
                         ([1, value], schema)):
                assert _outcome(validate, v, s) == _outcome(oracle_validate, v, s), (v, s)


# -- built-in cases ----------------------------------------------------------


def test_case_registry():
    assert CASE_NAMES == ("users", "order", "company", "invoice")
    assert [c.name for c in builtin_cases()] == list(CASE_NAMES)
    with pytest.raises(KeyError):
        get_case("nonexistent")


def test_gold_payloads_validate(cases):
    for c in cases:
        assert validate(c.gold, c.schema) == [], c.name


def test_a_gold_that_does_not_conform_is_refused(case_by_name):
    """The harness takes a valid answer ``==`` the gold as a success, which
    would let True pass for 1 if a gold held True where the schema asks for
    an int."""
    order = case_by_name["order"]
    gold = json.loads(json.dumps(order.gold))
    gold["items"][0]["qty"] = True
    with pytest.raises(ValueError, match=r"\$\.items\[0\]\.qty: expected int, found bool"):
        dataclasses.replace(order, gold=gold)


def test_gold_payloads_round_trip(cases):
    for c in cases:
        doc = parse_toon(encode_toon(c.gold))
        ok, diff = deep_equal(c.gold, doc.root)
        assert ok, (c.name, diff)


def test_order_gold_content(case_by_name):
    gold = case_by_name["order"].gold
    assert gold["id"] == 101
    assert gold["customer"] == {"id": 9, "name": "Ada"}
    assert gold["items"] == [{"sku": "A1", "qty": 2, "price": 9.99},
                             {"sku": "B2", "qty": 1, "price": 14.50}]


def test_invoice_total_is_item_sum(case_by_name):
    gold = case_by_name["invoice"].gold
    total = sum(i["qty"] * i["price"] for i in gold["items"])
    assert gold["totals"]["total"] == total
    assert gold["totals"]["subtotal"] == total


def test_users_case_shape(case_by_name):
    gold = case_by_name["users"].gold
    assert len(gold["users"]) == 4
    assert set(gold["users"][0]) == {"id", "name", "email", "role"}


def test_company_case_is_non_uniform(case_by_name):
    gold = case_by_name["company"].gold
    depts = gold["departments"]
    assert len(depts) == 2
    # the nested team lists differ in size: tabular layout cannot apply
    sizes = {len(d["teams"]) for d in depts}
    assert len(sizes) > 1 or any(
        len(t["employees"]) != len(depts[0]["teams"][0]["employees"])
        for d in depts for t in d["teams"])


def test_schema_field_order_matches_gold_key_order(cases):
    def walk(schema, value):
        if isinstance(schema, ObjectType):
            assert [name for name, _ in schema.fields] == list(value.keys())
            for name, fs in schema.fields:
                walk(fs, value[name])
        elif isinstance(schema, ArrayType):
            for item in value:
                walk(schema.element, item)
    for c in cases:
        walk(c.schema, c.gold)


# -- gold files --------------------------------------------------------------


def test_write_gold(tmp_path, case_by_name):
    case = case_by_name["order"]
    write_gold(case, tmp_path)
    jp = tmp_path / "order.gold.json"
    tp = tmp_path / "order.gold.toon"
    jtext = jp.read_text(encoding="utf-8")
    ttext = tp.read_text(encoding="utf-8")
    assert jtext.endswith("\n") and ttext.endswith("\n")
    assert deep_equal(parse_json(jtext), case.gold)[0]
    assert deep_equal(parse_toon(ttext).root, case.gold)[0]
    # the JSON side is canonical: stable under a strict reader
    assert json.loads(jtext) == json.loads(json.dumps(json.loads(jtext)))


def test_write_gold_bad_directory(tmp_path, case_by_name):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("file in the way")
    with pytest.raises(OSError):
        write_gold(case_by_name["order"], blocker)
