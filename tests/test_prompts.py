"""Prompt rendering for the J / JSO / T tracks and repair prompts."""

import textwrap

import pytest

from toonbench import prompts
from toonbench.prompts import TRACKS, render_prompt, render_repair_prompt
from toonbench.toon import parse_toon


def test_tracks_constant():
    assert TRACKS == ("J", "JSO", "T")


def test_j_track_is_task_body_verbatim(case_by_name):
    order = case_by_name["order"]
    assert render_prompt(order, "J") == order.task_body
    assert "Return as JSON with fields for id, customer" in \
        render_prompt(order, "J")


def test_jso_prompt_is_byte_identical_to_j(cases):
    for c in cases:
        assert render_prompt(c, "J") == render_prompt(c, "JSO")


def test_t_track_contains_rules_and_task(case_by_name):
    t = render_prompt(case_by_name["order"], "T")
    assert t.startswith("You are to produce output STRICTLY in TOON format.")
    assert "- [N] MUST equal actual row/item count" in t
    assert "Order ID: 101" in t
    assert "```toon" in t


def test_t_track_universal_block_is_case_independent(cases):
    heads = {render_prompt(c, "T").split("TASK:")[0] for c in cases}
    assert len(heads) == 1


def test_t_track_reference_example_parses(case_by_name):
    t = render_prompt(case_by_name["users"], "T")
    block = t.split("```toon\n", 1)[1].split("```", 1)[0]
    doc = parse_toon(textwrap.dedent(block))
    assert len(doc.root["sections"]) == 2
    assert doc.root["summary"]["total"] == 3
    assert doc.root["summary"]["status"] == "complete"


def test_unknown_track_rejected(case_by_name):
    with pytest.raises(ValueError):
        render_prompt(case_by_name["order"], "X")


def test_rendering_is_deterministic(cases):
    for c in cases:
        for track in TRACKS:
            assert render_prompt(c, track) == render_prompt(c, track)


def test_repair_prompt_structure(case_by_name):
    order = case_by_name["order"]
    r = render_repair_prompt(order, "T", "bad output",
                             "line 5, column 1: count-mismatch: declared 3")
    assert render_prompt(order, "T").rstrip("\n") in r
    assert "PREVIOUS OUTPUT:" in r and "bad output" in r
    assert "ERRORS:" in r and "count-mismatch" in r
    assert "TOON format" in r
    rj = render_repair_prompt(order, "J", "{}", "missing field")
    assert "JSON format" in rj


def test_repair_prompt_requires_error_text(case_by_name):
    with pytest.raises(ValueError):
        render_repair_prompt(case_by_name["order"], "J", "{}", "")


def test_repair_of_repair_embeds_only_latest_output(case_by_name):
    """Prompt growth across repair rounds is bounded: round k embeds only
    the round k-1 output, never the whole history."""
    order = case_by_name["order"]
    out1 = "FIRST_BAD_OUTPUT " * 50
    r1 = render_repair_prompt(order, "J", out1, "error one")
    out2 = "SECOND_BAD_OUTPUT"
    r2 = render_repair_prompt(order, "J", out2, "error two")
    assert "FIRST_BAD_OUTPUT" not in r2
    assert len(r2) < len(r1)


def test_template_dir_override(tmp_path, case_by_name):
    (tmp_path / "toon_prompt.txt").write_text("CUSTOM RULES\nTASK:\n$task\n")
    (tmp_path / "repair_prompt.txt").write_text(
        "$original|$previous|$errors|$fmt\n")
    order = case_by_name["order"]
    t = render_prompt(order, "T", template_dir=str(tmp_path))
    assert t.startswith("CUSTOM RULES") and "Order ID: 101" in t
    r = render_repair_prompt(order, "J", "prev", "err",
                             template_dir=str(tmp_path))
    assert r.endswith("|prev|err|JSON\n")


def test_packaged_templates_are_read_once(monkeypatch, case_by_name):
    order = case_by_name["order"]
    render_repair_prompt(order, "T", "prev", "err")  # uses both templates
    files = prompts.resources.files
    reads = []
    monkeypatch.setattr(prompts.resources, "files",
                        lambda package: reads.append(package) or files(package))
    for _ in range(3):
        render_prompt(order, "T")
        render_repair_prompt(order, "T", "prev", "err")
    assert reads == []


def test_template_dir_is_read_on_every_call(tmp_path, case_by_name):
    order = case_by_name["order"]
    render_prompt(order, "T")  # the packaged template, now cached
    for rules in ("FIRST RULES", "SECOND RULES"):
        (tmp_path / "toon_prompt.txt").write_text(rules + "\nTASK:\n$task\n")
        assert render_prompt(order, "T", str(tmp_path)).startswith(rules)
