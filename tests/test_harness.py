"""Benchmark execution: repair loops, CSV rows, attempt log, resume."""

import csv
import json
import random
import sys

import pytest

from toonbench.client import (DEFAULT_RETRIES, DEFAULT_TIMEOUT, ApiError,
                              ChatRequest, ScriptedClient, ScriptedTurn)
from toonbench.harness import (CSV_COLUMNS, ConfigError, GoldOracleClient,
                               _csv_row, _validate_config, _whole_rows, _write_rows,
                               make_client, run_benchmark, run_case)
from toonbench.prompts import TRACKS, render_prompt, render_repair_prompt
from toonbench.report import SchemaError, aggregate_by_model, load_results
from toonbench.schemas import CASE_NAMES
from toonbench.toon import encode_toon
from toonbench.values import emit_canonical_json


def gold_json(case):
    return emit_canonical_json(case.gold)


def gold_toon_fenced(case):
    return "```toon\n" + encode_toon(case.gold) + "```"


# -- run_case ----------------------------------------------------------------


def test_happy_path_one_attempt(case_by_name):
    order = case_by_name["order"]
    client = ScriptedClient([ScriptedTurn(gold_json(order), 100, 40)])
    r = run_case(client, "m", order, "J")
    assert r.one_shot_success and r.final_success
    assert len(r.attempts) == 1
    assert (r.total_prompt_tokens, r.total_completion_tokens) == (100, 40)


def test_jso_sets_response_format(case_by_name):
    order = case_by_name["order"]
    client = ScriptedClient([ScriptedTurn(gold_json(order), 1, 1)])
    run_case(client, "m", order, "JSO")
    assert client.requests[0].response_format == "json_object"
    client = ScriptedClient([ScriptedTurn(gold_json(order), 1, 1)])
    run_case(client, "m", order, "J")
    assert client.requests[0].response_format is None


def test_superscript_digit_answer_is_a_decode_error(case_by_name):
    order = case_by_name["order"]
    client = ScriptedClient([ScriptedTurn('{"a": 2\u00b2}', 1, 1),
                             ScriptedTurn(gold_json(order), 1, 1)])
    r = run_case(client, "m", order, "J")
    assert [a.outcome for a in r.attempts] == ["decode_error", "success"]


def test_count_mismatch_repair_cycle(case_by_name):
    order = case_by_name["order"]
    bad = encode_toon(order.gold).replace("items[2]", "items[3]")
    client = ScriptedClient([
        ScriptedTurn("```toon\n" + bad + "```", 200, 60),
        ScriptedTurn(gold_toon_fenced(order), 320, 60),
    ])
    r = run_case(client, "m", order, "T")
    assert not r.one_shot_success and r.final_success
    assert len(r.attempts) == 2
    assert r.attempts[0].outcome == "decode_error"
    assert "count-mismatch" in r.attempts[0].error_text
    # the repair prompt embeds the failed output and the error text
    repair = client.requests[1].messages[0][1]
    assert "count-mismatch" in repair and "items[3]" in repair
    assert (r.total_prompt_tokens, r.total_completion_tokens) == (520, 120)


def test_validation_error_feeds_repair(case_by_name):
    order = case_by_name["order"]
    missing = {"id": 101, "customer": {"id": 9, "name": "Ada"}}
    client = ScriptedClient([
        ScriptedTurn(emit_canonical_json(missing), 10, 5),
        ScriptedTurn(gold_json(order), 10, 5),
    ])
    r = run_case(client, "m", order, "J")
    assert r.attempts[0].outcome == "validation_error"
    assert "items" in r.attempts[0].error_text


def test_mismatch_reports_diff_path(case_by_name):
    order = case_by_name["order"]
    wrong = dict(order.gold)
    wrong["id"] = 999
    client = ScriptedClient([ScriptedTurn(emit_canonical_json(wrong), 10, 5)] * 4)
    r = run_case(client, "m", order, "J")
    assert not r.final_success and len(r.attempts) == 4
    assert r.attempts[0].outcome == "mismatch"
    assert "$.id" in r.attempts[0].error_text


def _order_with(case, index, field, value):
    gold = json.loads(json.dumps(case.gold))
    gold["items"][index][field] = value
    return gold


def _answer(value, track):
    return ("```toon\n" + encode_toon(value) + "```" if track == "T"
            else emit_canonical_json(value))


@pytest.mark.parametrize("track", ["J", "T"])
@pytest.mark.parametrize("index, field, value, outcome, error_text", [
    # the gold's qty is 1, and True == 1; validation refuses it first
    (1, "qty", True, "validation_error", "$.items[1].qty: expected int, found bool"),
    (0, "qty", 2.0, "success", ""),
    (0, "price", 9.98, "mismatch", "value at $.items[0].price is wrong (value mismatch)"),
], ids=["bool-qty", "float-qty", "changed-price"])
def test_an_answer_is_judged_by_validation_then_equality(case_by_name, track, index, field,
                                                         value, outcome, error_text):
    order = case_by_name["order"]
    answer = _answer(_order_with(order, index, field, value), track)
    r = run_case(ScriptedClient([ScriptedTurn(answer, 1, 1)]), "m", order, track,
                 max_repairs=0)
    assert [(a.outcome, a.error_text) for a in r.attempts] == [(outcome, error_text)]


def test_fenced_json_answers_are_tolerated(case_by_name):
    order = case_by_name["order"]
    fenced = "```json\n" + gold_json(order) + "\n```"
    client = ScriptedClient([ScriptedTurn(fenced, 10, 5)])
    assert run_case(client, "m", order, "J").one_shot_success


# Answers past Python's own limits: the recursion limit, int()'s 4300-digit
# limit and the float range.  Each used to escape run_case and end the run.
@pytest.mark.parametrize("track, answer", [
    ("J", lambda gold: "[" * 3000),
    ("T", lambda gold: "```toon\n" + "\n".join("  " * i + "a:" for i in range(1500))
     + " 1\n```"),
    ("J", lambda gold: '{"id": ' + "1" * 5000 + "}"),
    ("T", lambda gold: "```toon\n" + encode_toon(gold).replace("101", "1" * 5000) + "```"),
    ("T", lambda gold: "```toon\n" + encode_toon(gold).replace("9.99", "1e999") + "```"),
], ids=["json-deep", "toon-deep", "json-long-int", "toon-long-int", "toon-float-overflow"])
def test_answers_past_python_limits_are_decode_errors(case_by_name, track, answer):
    order = case_by_name["order"]
    good = gold_toon_fenced(order) if track == "T" else gold_json(order)
    client = ScriptedClient([ScriptedTurn(answer(order.gold), 1, 1),
                             ScriptedTurn(good, 1, 1)])
    r = run_case(client, "m", order, track)
    assert [a.outcome for a in r.attempts] == ["decode_error", "success"]


def test_transport_failure_consumes_attempt(case_by_name):
    order = case_by_name["order"]

    class Flaky:
        def __init__(self):
            self.calls = 0

        def complete(self, req):
            self.calls += 1
            if self.calls == 1:
                raise ApiError(500, "boom")
            return ScriptedClient(
                [ScriptedTurn(gold_json(order), 10, 5)]).complete(req)

    r = run_case(Flaky(), "m", order, "J")
    assert len(r.attempts) == 2
    assert r.attempts[0].outcome == "transport_error"
    assert r.attempts[0].prompt_tokens == 0
    assert r.final_success and not r.one_shot_success


def test_all_transport_flags_invalid(case_by_name):
    order = case_by_name["order"]

    class Dead:
        def complete(self, req):
            raise ApiError(500, "down")

    r = run_case(Dead(), "m", order, "J")
    assert not r.final_success and "all_transport" in r.flags


def test_estimated_usage_flag_propagates(case_by_name):
    order = case_by_name["order"]

    class NoUsage:
        def complete(self, req):
            from toonbench.client import ChatResponse
            return ChatResponse(gold_json(order), 0, 25, usage_estimated=True)

    r = run_case(NoUsage(), "m", order, "J")
    assert "estimated_usage" in r.flags


# -- per-run figures: CaseResult totals and the report over the CSV ----------


def _case_result(case_by_name, case, track, script):
    return run_case(ScriptedClient(script), "m", case_by_name[case], track)


def _by_model(tmp_path, results):
    """The report's per-model figures for ``results`` written as run 1."""
    path = tmp_path / "r.csv"
    _write_rows(path, [_csv_row(1, r) for r in results])
    return aggregate_by_model(load_results(path))["m"]


def test_three_first_try_plus_one_repair(case_by_name, tmp_path):
    results = []
    for name in ("users", "order", "company"):
        case = case_by_name[name]
        results.append(_case_result(case_by_name, name, "J",
                                    [ScriptedTurn(gold_json(case), 100, 50)]))
    invoice = case_by_name["invoice"]
    results.append(_case_result(
        case_by_name, "invoice", "J",
        [ScriptedTurn("not json at all", 100, 50),
         ScriptedTurn(gold_json(invoice), 140, 50)]))
    assert [r.one_shot_success for r in results] == [True, True, True, False]
    assert all(r.final_success for r in results)
    assert sum(r.total_prompt_tokens + r.total_completion_tokens
               for r in results) == 3 * 150 + (150 + 190)
    assert _by_model(tmp_path, results) == \
        {"J": {"one_shot": 0.75, "final": 1.0, "tokens": 3 * 150 + (150 + 190)}}


def test_token_totals_reproduce_scripted_sum(case_by_name, tmp_path):
    """Four one-shot successes whose scripted usages sum to 2772."""
    budgets = [(500, 190), (520, 180), (500, 200), (490, 192)]
    assert sum(p + c for p, c in budgets) == 2772
    results = []
    for (name, (p, comp)) in zip(CASE_NAMES, budgets):
        case = case_by_name[name]
        results.append(_case_result(case_by_name, name, "J",
                                    [ScriptedTurn(gold_json(case), p, comp)]))
    assert [(r.total_prompt_tokens, r.total_completion_tokens)
            for r in results] == budgets
    assert _by_model(tmp_path, results) == \
        {"J": {"one_shot": 1.0, "final": 1.0, "tokens": 2772}}


def test_run_missing_cases_counts_only_the_cells_it_has(case_by_name, tmp_path):
    """A run with one of its four cases (a sweep cut short) is averaged over
    the one cell its CSV has."""
    case = case_by_name["order"]
    only_one = [_case_result(case_by_name, "order", "J",
                             [ScriptedTurn(gold_json(case), 1, 1)])]
    assert _by_model(tmp_path, only_one) == \
        {"J": {"one_shot": 1.0, "final": 1.0, "tokens": 2}}


def test_randomized_scenarios_bounds_and_monotonicity(case_by_name):
    rng = random.Random(42)
    for _ in range(100):
        name = rng.choice(CASE_NAMES)
        case = case_by_name[name]
        script = []
        n_bad = rng.randrange(0, 5)
        for _ in range(n_bad):
            script.append(ScriptedTurn(rng.choice(
                ["not json", "{", '{"zzz": 1}', ""]), rng.randrange(1, 300),
                rng.randrange(1, 300)))
        script.append(ScriptedTurn(gold_json(case), 10, 10))
        r = run_case(ScriptedClient(script), "m", case, "J")
        assert len(r.attempts) <= 4
        assert r.final_success >= r.one_shot_success
        # accounting closure: totals equal the sum over attempts
        assert r.total_prompt_tokens == sum(a.prompt_tokens for a in r.attempts)
        assert r.total_completion_tokens == sum(a.completion_tokens
                                                for a in r.attempts)


# -- run_benchmark -----------------------------------------------------------


MOCK_CFG = {"provider": "mock", "models": ["oracle-1"], "runs": 10}


def test_benchmark_cardinality_and_accuracy(tmp_path):
    out = tmp_path / "results.csv"
    assert run_benchmark(MOCK_CFG, out, tmp_path / "attempts.jsonl") is None
    rows = list(csv.DictReader(open(out)))
    assert len(rows) == 10 * 4 * 3 == 120
    assert tuple(rows[0].keys()) == CSV_COLUMNS
    by_track = aggregate_by_model(load_results(out))["oracle-1"]
    assert list(by_track) == list(TRACKS)
    for m in by_track.values():
        assert m["one_shot"] == 1.0 and m["final"] == 1.0
        assert m["tokens"] > 0


def test_benchmark_accuracies_are_quarters(tmp_path):
    run_benchmark(MOCK_CFG, tmp_path / "r.csv")
    rows = list(csv.DictReader(open(tmp_path / "r.csv")))
    per_run_track = {}
    for row in rows:
        key = (row["run_index"], row["track"])
        per_run_track.setdefault(key, []).append(int(row["one_shot_success"]))
    for vals in per_run_track.values():
        assert sum(vals) / len(vals) in (0, 0.25, 0.5, 0.75, 1)


def test_benchmark_determinism(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run_benchmark(MOCK_CFG, a, tmp_path / "a.jsonl")
    run_benchmark(MOCK_CFG, b, tmp_path / "b.jsonl")
    assert a.read_text() == b.read_text()
    assert (tmp_path / "a.jsonl").read_text() == (tmp_path / "b.jsonl").read_text()


def test_benchmark_parallel_output_matches_serial(tmp_path):
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    run_benchmark(MOCK_CFG, serial)
    run_benchmark({**MOCK_CFG, "parallelism": 4}, parallel)
    assert serial.read_text() == parallel.read_text()


def test_benchmark_resume_skips_existing_cells(tmp_path):
    full = tmp_path / "full.csv"
    run_benchmark(MOCK_CFG, full)
    expected = full.read_text()
    resumed = tmp_path / "resumed.csv"
    lines = expected.splitlines(keepends=True)
    resumed.write_text("".join(lines[:51]))  # header + 50 rows
    run_benchmark(MOCK_CFG, resumed)
    body = resumed.read_text()
    assert body == expected
    keys = [tuple(r[k] for k in ("model", "run_index", "case", "track"))
            for r in csv.DictReader(open(resumed))]
    assert len(keys) == len(set(keys)) == 120


@pytest.mark.parametrize("cut", [1, 20, -1])
def test_benchmark_resume_reruns_a_row_cut_by_a_kill(tmp_path, cut):
    full = tmp_path / "full.csv"
    run_benchmark(MOCK_CFG, full)
    expected = full.read_text()
    resumed = tmp_path / "resumed.csv"
    lines = expected.splitlines(keepends=True)
    resumed.write_text("".join(lines[:51]) + lines[51][:cut])  # killed mid-row
    run_benchmark(MOCK_CFG, resumed)
    assert resumed.read_text() == expected
    assert len(load_results(resumed)) == 120
    assert not list(tmp_path.glob("*.tmp"))


def test_benchmark_resume_reruns_malformed_rows(tmp_path):
    full = tmp_path / "full.csv"
    run_benchmark(MOCK_CFG, full)
    expected = full.read_text()
    lines = expected.splitlines(keepends=True)
    lines[5] = lines[5].replace(",1,1,1,", ",1,x,1,", 1)  # a count that fails to parse
    del lines[7:9]  # two rows missing
    lines[9] = lines[9].rstrip("\n") + ",extra\n"  # one column too many
    resumed = tmp_path / "resumed.csv"
    resumed.write_text("".join(lines))
    run_benchmark(MOCK_CFG, resumed)
    assert resumed.read_text() == expected


# One malformed row after a good one.  Resume drops it (its cell runs again)
# and the report refuses the file, naming the row's line: both go through
# harness.parse_row.
@pytest.mark.parametrize("bad", [
    "m,1,order,J,1,1,1,10,5,,x",  # one column too many
    "m,1,order,J,1,1,1,10,5",  # one column missing
    "m,1,order,J,7,1,1,10,5,",  # a success column that is neither 0 nor 1
    "m,1,order,J,1,1,1,-10,5,",  # a negative token count
    "m,1,order,J,1,1,0,10,5,",  # no attempt
    "m,1,order,J,1,0,1,10,5,",  # final below one-shot
    "m,1,order,X,0,0,4,1000,0,",  # a track that is not in TRACKS
    "m,1,orders,J,1,1,1,10,5,",  # a case that is not in CASE_NAMES
    "m,1,users,J,0,1,2,10,5,",  # a second row of the first row's cell
], ids=["extra-column", "missing-column", "one-shot-7", "negative-tokens",
        "zero-attempts", "final-below-one-shot", "unknown-track", "unknown-case",
        "repeated-cell"])
def test_resume_and_report_refuse_the_same_rows(tmp_path, bad):
    p = tmp_path / "r.csv"
    p.write_text(",".join(CSV_COLUMNS) + "\nm,1,users,J,1,1,1,10,5,\n" + bad + "\n")
    assert [row["case"] for row in _whole_rows(p)] == ["users"]
    with pytest.raises(SchemaError, match=r"r\.csv:3: bad row"):
        load_results(p)


def test_resume_keeps_the_first_row_of_a_repeated_cell(tmp_path):
    """A CSV that holds a cell twice resumes to one row per cell: the first."""
    cfg = {**MOCK_CFG, "runs": 1}
    p = tmp_path / "r.csv"
    run_benchmark(cfg, p)
    expected = p.read_text()
    fields = next(line for line in expected.splitlines() if ",users,J," in line).split(",")
    fields[4:7] = ["0", "1", "2"]
    p.write_text(expected + ",".join(fields) + "\n")
    run_benchmark(cfg, p)
    assert p.read_text() == expected
    assert aggregate_by_model(load_results(p))["oracle-1"]["J"]["one_shot"] == 1.0


class CrashAfter(GoldOracleClient):
    """The mock provider, raising RuntimeError from its call ``k + 1`` on."""

    def __init__(self, k):
        super().__init__()
        self.left = k

    def complete(self, req):
        if self.left == 0:
            raise RuntimeError("provider crashed")
        self.left -= 1
        return super().complete(req)


@pytest.mark.parametrize("k", [0, 1, 7])
def test_attempt_log_holds_the_attempts_of_the_written_rows(tmp_path, k):
    out, log = tmp_path / "r.csv", tmp_path / "attempts.jsonl"
    with pytest.raises(RuntimeError):
        run_benchmark(MOCK_CFG, out, log, client=CrashAfter(k))
    rows = list(csv.DictReader(open(out)))
    logged = [json.loads(line) for line in log.read_text().splitlines()]
    assert len(rows) == k  # every mock cell takes one attempt
    assert sorted((r["model"], r["run_index"], r["case"], r["track"])
                  for r in logged) == \
        sorted((r["model"], int(r["run_index"]), r["case"], r["track"])
               for r in rows)
    assert sum(int(r["attempts"]) for r in rows) == len(logged)


def test_attempt_log_lines_are_the_same_in_parallel(tmp_path):
    run_benchmark(MOCK_CFG, tmp_path / "a.csv", tmp_path / "a.jsonl")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so writes interleave
    try:
        run_benchmark({**MOCK_CFG, "parallelism": 4}, tmp_path / "b.csv",
                      tmp_path / "b.jsonl")
    finally:
        sys.setswitchinterval(interval)
    assert (tmp_path / "a.csv").read_text() == (tmp_path / "b.csv").read_text()
    serial = (tmp_path / "a.jsonl").read_text().splitlines()
    parallel = (tmp_path / "b.jsonl").read_text().splitlines()
    assert len(serial) == 120
    assert sorted(serial) == sorted(parallel)


def test_attempt_log_lines_parse(tmp_path):
    log = tmp_path / "attempts.jsonl"
    run_benchmark(MOCK_CFG, tmp_path / "r.csv", log)
    lines = log.read_text().splitlines()
    assert len(lines) == 120  # every mock case solves in one attempt
    rec = json.loads(lines[0])
    assert {"model", "run_index", "case", "track", "attempt_index",
            "outcome"} <= set(rec)


HTTP = "http://127.0.0.1:9/v1"  # never contacted: the config fails first


@pytest.mark.parametrize("bad", [
    {"provider": "mock"},  # no models
    {"provider": "mock", "models": []},
    {"provider": "mock", "models": ["m"], "runs": 0},
    {"provider": "mock", "models": ["m"], "tracks": ["X"]},
    {"provider": "mock", "models": ["m"], "cases": ["nope"]},
    {"provider": "mock", "models": ["m"], "max_repairs": -1},
    {"provider": "nope", "models": ["m"]},
    {"provider": "http", "models": ["m"]},  # endpoint missing
    {"provider": "http", "endpoint": HTTP, "models": ["m"], "retries": -1},
    {"provider": "http", "endpoint": HTTP, "models": ["m"], "retries": 1.5},
    {"provider": "http", "endpoint": HTTP, "models": ["m"], "retries": True},
    {"provider": "http", "endpoint": HTTP, "models": ["m"], "timeout": 0},
    {"provider": "http", "endpoint": HTTP, "models": ["m"], "timeout": -5.0},
    {"provider": "mock", "models": ["m", "m"]},
    {"provider": "mock", "models": ["m"], "tracks": ["J", "J"]},
    {"provider": "mock", "models": ["m"], "cases": ["users", "users"]},
    {"provider": "mock", "models": ["m"], "runs": True},
    {"provider": "mock", "models": ["m"], "max_repairs": True},
    {"provider": "mock", "models": ["m"], "parallelism": True},
])
def test_config_errors_abort_early(tmp_path, bad):
    with pytest.raises(ConfigError):
        run_benchmark(bad, tmp_path / "r.csv")
    assert not (tmp_path / "r.csv").exists() or \
        (tmp_path / "r.csv").read_text() == ""


class Recording:
    """A client that records every request and answers none."""

    def __init__(self):
        self.requests = []

    def complete(self, req):
        self.requests.append(req)
        raise ApiError(500, "no answer")


REPAIR = "$original\n$previous\n$errors\n$fmt\n"


@pytest.mark.parametrize("templates, config", [
    ({"repair_prompt.txt": REPAIR}, {}),  # no toon_prompt.txt
    ({"toon_prompt.txt": "$rules\n$task\n", "repair_prompt.txt": REPAIR}, {}),
    ({"toon_prompt.txt": "$task\n$\n", "repair_prompt.txt": REPAIR}, {}),
    ({"toon_prompt.txt": "$task\n"}, {"tracks": ["J", "T"]}),  # no repair_prompt.txt
    ({"toon_prompt.txt": "$task\n", "repair_prompt.txt": "$original $oops\n"}, {}),
    ({}, {"tracks": ["J"]}),  # a J repair prompt needs repair_prompt.txt
    ({}, {"template_dir": 5}),
    ({}, {"template_dir": ["t"]}),
], ids=["no-toon-template", "unknown-name", "bad-placeholder", "no-repair-template",
        "unknown-repair-name", "empty-dir-J", "number", "list"])
def test_a_bad_template_dir_is_a_config_error_before_any_request(tmp_path, templates, config):
    for name, text in templates.items():
        (tmp_path / name).write_text(text)
    client = Recording()
    with pytest.raises(ConfigError):
        run_benchmark({"provider": "http", "endpoint": HTTP, "models": ["m"], "runs": 1,
                       "template_dir": str(tmp_path), **config},
                      tmp_path / "r.csv", client=client)
    assert client.requests == []


def test_a_template_dir_needs_a_repair_template_only_where_a_repair_may_follow(tmp_path):
    """With no repair attempt the sweep renders no repair prompt, so a
    template_dir without one is fine; and the mock provider answers every
    first prompt with the gold."""
    (tmp_path / "toon_prompt.txt").write_text("TOON please\n$task\n")
    http = {"provider": "http", "endpoint": HTTP, "models": ["m"], "runs": 1,
            "template_dir": str(tmp_path)}
    out = tmp_path / "r.csv"
    run_benchmark({**http, "max_repairs": 0}, out,
                  client=GoldOracleClient(template_dir=str(tmp_path)))
    assert len(load_results(out)) == len(CASE_NAMES) * len(TRACKS)
    run_benchmark({**MOCK_CFG, "runs": 1, "template_dir": str(tmp_path)}, tmp_path / "m.csv")
    with pytest.raises(ConfigError):
        run_benchmark({**http, "max_repairs": 1}, tmp_path / "x.csv", client=Recording())


def test_http_client_gets_the_checked_settings():
    base = {"provider": "http", "endpoint": HTTP, "models": ["m"]}
    for config, expected in ((base, (DEFAULT_TIMEOUT, DEFAULT_RETRIES)),
                             ({**base, "timeout": 5, "retries": 0}, (5.0, 0))):
        cfg = _validate_config(config)
        client = make_client(config, cfg["timeout"], cfg["retries"])
        assert (client.timeout, client.retries) == expected


def test_gold_oracle_covers_all_cases_and_tracks(cases):
    client = GoldOracleClient()
    from toonbench.prompts import render_prompt
    from toonbench.client import ChatRequest
    for c in cases:
        for track in TRACKS:
            prompt = render_prompt(c, track)
            resp = client.complete(ChatRequest(model="m",
                                               messages=(("user", prompt),)))
            assert resp.prompt_tokens > 0 and resp.completion_tokens > 0


def test_mock_answers_the_prompts_of_its_template_dir(tmp_path):
    """A T template without the packaged wording: the mock provider still
    answers every first-attempt prompt that the sweep renders from it, so
    every track solves every case in one attempt."""
    (tmp_path / "toon_prompt.txt").write_text("Answer in TOON.\nTASK:\n$task\n")
    (tmp_path / "repair_prompt.txt").write_text("$original\n$previous\n$errors\n$fmt\n")
    out = tmp_path / "r.csv"
    run_benchmark({**MOCK_CFG, "runs": 1, "template_dir": str(tmp_path)}, out)
    by_track = aggregate_by_model(load_results(out))["oracle-1"]
    assert [m["one_shot"] for m in by_track.values()] == [1.0] * len(TRACKS)


def test_mock_reads_no_template_of_a_track_the_sweep_leaves_out(tmp_path):
    out = tmp_path / "r.csv"
    run_benchmark({**MOCK_CFG, "runs": 1, "tracks": ["J"], "template_dir": str(tmp_path)}, out)
    assert aggregate_by_model(load_results(out))["oracle-1"]["J"]["one_shot"] == 1.0


def test_mock_refuses_prompts_it_does_not_know(case_by_name):
    order = case_by_name["order"]
    client = GoldOracleClient()
    for prompt in ("hello", render_prompt(order, "T") + "\n",
                   render_repair_prompt(order, "T", "x: 1\n", "wrong")):
        with pytest.raises(ApiError) as e:
            client.complete(ChatRequest(model="m", messages=(("user", prompt),)))
        assert e.value.status == 400
