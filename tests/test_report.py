"""Aggregation, efficiency, and report artifact generation."""

import csv

import pytest

from toonbench.harness import CSV_COLUMNS
from toonbench.report import (SchemaError, aggregate_by_case,
                              aggregate_by_model, efficiency, emit_report,
                              format_percent, format_tokens, load_results)


def make_row(model, run, case, track, one_shot, final, tokens, attempts=1):
    return {"model": model, "run_index": run, "case": case, "track": track,
            "one_shot_success": int(one_shot), "final_success": int(final),
            "attempts": attempts, "prompt_tokens": tokens - tokens // 4,
            "completion_tokens": tokens // 4, "flags": ""}


def write_csv(path, rows):
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=CSV_COLUMNS)
        w.writeheader()
        for r in rows:
            w.writerow(r)
    return path


def uniform_runs(model="m", runs=10, tokens=2772):
    """All four cases solved first try on every track, fixed total budget."""
    rows = []
    per_case = tokens // 4
    for run in range(1, runs + 1):
        for case in ("users", "order", "company", "invoice"):
            for track in ("J", "JSO", "T"):
                rows.append(make_row(model, run, case, track, True, True,
                                     per_case))
    return rows


# -- loading -----------------------------------------------------------------


def test_load_results_checks_columns(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("model,foo\nx,1\n")
    with pytest.raises(SchemaError):
        load_results(p)


def test_load_results_checks_cell_types(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text(",".join(CSV_COLUMNS) + "\nm,one,users,J,1,1,1,10,5,\n")
    with pytest.raises(SchemaError):
        load_results(p)


def test_load_results_rejects_one_shot_without_final(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text(",".join(CSV_COLUMNS) + "\nm,1,users,J,1,0,1,10,5,\n")
    with pytest.raises(SchemaError):
        load_results(p)


# -- aggregation -------------------------------------------------------------


def test_by_model_mean_of_constant_runs(tmp_path):
    rows = load_results(write_csv(tmp_path / "r.csv", uniform_runs()))
    table = aggregate_by_model(rows)
    cell = table["m"]["J"]
    assert cell["one_shot"] == 1.0 and cell["final"] == 1.0
    assert format_tokens(cell["tokens"]) == "2772"


def test_by_model_averages_across_runs(tmp_path):
    rows = []
    # run 1: 2 of 4 first-try; run 2: all 4 — mean one-shot 75%
    for run, successes in ((1, 2), (2, 4)):
        for i, case in enumerate(("users", "order", "company", "invoice")):
            ok = i < successes
            rows.append(make_row("m", run, case, "J", ok, True, 100,
                                 attempts=1 if ok else 2))
    data = load_results(write_csv(tmp_path / "r.csv", rows))
    cell = aggregate_by_model(data)["m"]["J"]
    assert format_percent(cell["one_shot"]) == "75.0%"
    assert cell["final"] == 1.0


def test_by_case_reproduces_published_style_cells(tmp_path):
    rows = []
    for i in range(14):  # 13/14 one-shot, all final, 556 tokens per case
        rows.append(make_row("m", i + 1, "users", "JSO", i < 13, True, 556))
    for i in range(21):  # 11/21 final, none one-shot, 3626 tokens per case
        rows.append(make_row("m", i + 1, "invoice", "T", False, i < 11, 3626,
                             attempts=4))
    data = load_results(write_csv(tmp_path / "r.csv", rows))
    table = aggregate_by_case(data)
    users = table["users"]["JSO"]
    assert format_percent(users["one_shot"]) == "92.9%"
    assert format_percent(users["final"]) == "100.0%"
    assert format_tokens(users["tokens"]) == "556"
    invoice = table["invoice"]["T"]
    assert format_percent(invoice["one_shot"]) == "0.0%"
    assert format_percent(invoice["final"]) == "52.4%"
    assert format_tokens(invoice["tokens"]) == "3626"


def test_by_case_degenerate_single_model_equals_that_model(tmp_path):
    rows = uniform_runs()
    data = load_results(write_csv(tmp_path / "r.csv", rows))
    by_case = aggregate_by_case(data)
    for case in by_case:
        assert by_case[case]["J"]["one_shot"] == 1.0
        assert format_tokens(by_case[case]["J"]["tokens"]) == "693"


# -- efficiency --------------------------------------------------------------


def test_efficiency_single_case_group(tmp_path):
    rows = [make_row("m", i + 1, "users", "JSO", True, True, 556)
            for i in range(10)]
    data = load_results(write_csv(tmp_path / "r.csv", rows))
    eff = efficiency(data, {"g": ("users",)})
    assert abs(eff["m"]["JSO"]["g"] - 1.798) < 0.001


def test_efficiency_zero_accuracy_is_zero(tmp_path):
    rows = [make_row("m", 1, "users", "J", False, False, 5000, attempts=4)]
    data = load_results(write_csv(tmp_path / "r.csv", rows))
    assert efficiency(data, {"g": ("users",)})["m"]["J"]["g"] == 0.0


def test_all_transport_group_is_left_out(tmp_path):
    """A group whose every cell is all_transport used no tokens: it has no
    efficiency, and the report shows '-' for it instead of crashing."""
    rows = [dict(make_row("m", 1, case, "J", False, False, 0), flags="all_transport")
            for case in ("users", "order")]
    rows.append(make_row("m", 1, "invoice", "J", True, True, 800))
    p = write_csv(tmp_path / "r.csv", rows)
    assert efficiency(load_results(p)) == {"m": {"J": {"non_aligned": 1.25}}}
    emit_report(p, tmp_path / "out")
    report = (tmp_path / "out" / "report.txt").read_text().splitlines()
    assert report[-1].split() == ["m", "J", "-", "1.250"]


def test_all_transport_cells_are_failures_with_no_tokens(tmp_path):
    """An all_transport cell counts as a failure in both accuracies and adds
    no tokens to its run."""
    rows = [dict(make_row("m", 1, "users", "J", False, False, 0), attempts=4,
                 flags="all_transport"),
            make_row("m", 1, "order", "J", True, True, 800)]
    cell = aggregate_by_model(load_results(write_csv(tmp_path / "r.csv", rows)))
    assert cell == {"m": {"J": {"one_shot": 0.5, "final": 0.5, "tokens": 800}}}


def test_efficiency_homogeneity(tmp_path):
    base = [make_row("m", i + 1, c, "J", True, True, t)
            for i in range(3)
            for c, t in (("users", 400), ("order", 800))]
    doubled = [dict(r, prompt_tokens=2 * r["prompt_tokens"],
                    completion_tokens=2 * r["completion_tokens"])
               for r in base]
    d1 = load_results(write_csv(tmp_path / "a.csv", base))
    d2 = load_results(write_csv(tmp_path / "b.csv", doubled))
    e1 = efficiency(d1, {"g": ("users", "order")})["m"]["J"]["g"]
    e2 = efficiency(d2, {"g": ("users", "order")})["m"]["J"]["g"]
    assert abs(e1 - 2 * e2) < 1e-9


def test_efficiency_weights_cases_equally(tmp_path):
    # users solves always at 100 tokens; order never at 900 tokens
    rows = [make_row("m", 1, "users", "J", True, True, 100),
            make_row("m", 1, "order", "J", False, False, 900, attempts=4)]
    data = load_results(write_csv(tmp_path / "r.csv", rows))
    e = efficiency(data, {"g": ("users", "order")})["m"]["J"]["g"]
    assert abs(e - (0.5 / 0.5)) < 1e-9  # mean acc 0.5, mean cost 500


def test_efficiency_requires_disjoint_groups(tmp_path):
    data = load_results(write_csv(tmp_path / "r.csv", uniform_runs()))
    with pytest.raises(ValueError):
        efficiency(data, {"a": ("users",), "b": ("users", "order")})


@pytest.mark.parametrize("grouping", [
    {"g": "users"},  # a string, not a list of names
    {"g": ["nope"]},
    {"g": []},
    {"g": 5},
    {"g": ["users", "users"]},
])
def test_efficiency_refuses_a_group_that_is_not_a_list_of_cases(tmp_path, grouping):
    data = load_results(write_csv(tmp_path / "r.csv", uniform_runs()))
    with pytest.raises(ValueError):
        efficiency(data, grouping)


# -- rendering ---------------------------------------------------------------


def test_format_percent_half_up():
    assert format_percent(13 / 14) == "92.9%"
    assert format_percent(11 / 21) == "52.4%"
    assert format_percent(0.125) == "12.5%"
    assert format_percent(0.0305) == "3.1%"
    assert format_percent(1.0) == "100.0%"


def test_emit_report_artifacts(tmp_path):
    p = write_csv(tmp_path / "r.csv", uniform_runs())
    out = tmp_path / "report"
    written = emit_report(p, out)
    names = sorted(w.name for w in written)
    assert names == ["figure_aligned.svg", "figure_aligned.tsv",
                     "figure_non_aligned.svg", "figure_non_aligned.tsv",
                     "report.txt"]
    text = (out / "report.txt").read_text()
    assert "Average results by model" in text
    assert "Average results by test case" in text
    assert "Token efficiency by case group" in text
    assert "1.0 = 100%" in text  # unit declaration


def test_emit_report_figure_data_cardinality(tmp_path):
    rows = uniform_runs("m1") + uniform_runs("m2")
    p = write_csv(tmp_path / "r.csv", rows)
    emit_report(p, tmp_path / "out")
    lines = (tmp_path / "out" / "figure_aligned.tsv").read_text().splitlines()
    assert lines[0] == "model\ttrack\tgroup\tefficiency"
    assert len(lines) - 1 == 2 * 3  # models x tracks


def test_emit_report_deterministic(tmp_path):
    p = write_csv(tmp_path / "r.csv", uniform_runs())
    w1 = emit_report(p, tmp_path / "out1")
    w2 = emit_report(p, tmp_path / "out2")
    for a, b in zip(w1, w2):
        assert a.read_bytes() == b.read_bytes()


def test_emit_report_custom_grouping(tmp_path):
    p = write_csv(tmp_path / "r.csv", uniform_runs())
    written = emit_report(p, tmp_path / "out",
                          {"solo": ("users",)})
    assert sorted(w.name for w in written) == \
        ["figure_solo.svg", "figure_solo.tsv", "report.txt"]
