"""Schemas, lenient validation, the built-in cases, and gold file output."""

import json
import math

import pytest

from toonbench.schemas import (ArrayType, BoolType, CASE_NAMES, FloatType,
                               IntType, ObjectType, StrType, builtin_cases,
                               get_case, validate, write_gold)
from toonbench.toon import encode_toon, parse_toon
from toonbench.values import deep_equal, parse_json


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


# -- built-in cases ----------------------------------------------------------


def test_case_registry():
    assert CASE_NAMES == ("users", "order", "company", "invoice")
    assert [c.name for c in builtin_cases()] == list(CASE_NAMES)
    with pytest.raises(KeyError):
        get_case("nonexistent")


def test_gold_payloads_validate(cases):
    for c in cases:
        assert validate(c.gold, c.schema) == [], c.name


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
