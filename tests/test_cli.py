"""Command-line interface: exit codes, round trips, end-to-end subcommands."""

import csv
import json
import os
import re

import pytest

from toonbench.cli import main
from toonbench.mask import save_vocabulary
from toonbench.schemas import CASE_NAMES
from toonbench.toon import encode_toon, parse_toon
from toonbench.values import emit_canonical_json, parse_json


# -- encode / decode ---------------------------------------------------------


def test_encode_decode_round_trip(tmp_path, capsys, case_by_name):
    order = case_by_name["order"]
    src = tmp_path / "order.json"
    src.write_text(emit_canonical_json(order.gold) + "\n")
    toon_out = tmp_path / "order.toon"
    assert main(["encode", str(src), "-o", str(toon_out)]) == 0
    # canonical JSON sorts keys, so compare values rather than bytes
    assert parse_toon(toon_out.read_text()).root == order.gold
    assert main(["decode", str(toon_out)]) == 0
    printed = capsys.readouterr().out
    assert parse_json(printed) == order.gold
    assert printed == emit_canonical_json(order.gold) + "\n"


def test_decode_count_mismatch_exits_one(tmp_path, capsys, case_by_name):
    bad = encode_toon(case_by_name["order"].gold).replace("items[2]",
                                                          "items[5]")
    p = tmp_path / "bad.toon"
    p.write_text(bad)
    assert main(["decode", str(p)]) == 1
    assert "count-mismatch" in capsys.readouterr().err


def test_decode_joins_a_surrogate_pair_and_refuses_a_lone_one(tmp_path, capsys):
    p = tmp_path / "k.toon"
    p.write_text('k: "\\ud83d\\ude00"\n')
    assert main(["decode", str(p)]) == 0
    assert capsys.readouterr().out == '{"k":"\U0001f600"}\n'
    p.write_text('k: "\\ud83d"\n')
    assert main(["decode", str(p)]) == 1
    assert "line 1, column 5: bad-escape" in capsys.readouterr().err


def test_encode_bad_json_exits_one(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"a": }')
    assert main(["encode", str(p)]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_input_exits_two(tmp_path, capsys):
    assert main(["encode", str(tmp_path / "nope.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_stdin_stdout_dash(tmp_path, capsys, monkeypatch, case_by_name):
    import io
    users = case_by_name["users"]
    monkeypatch.setattr("sys.stdin",
                        io.StringIO(emit_canonical_json(users.gold)))
    assert main(["encode", "-"]) == 0
    out = capsys.readouterr().out
    assert parse_toon(out).root == users.gold


# -- validate / gold ---------------------------------------------------------


def test_gold_then_validate_every_case(tmp_path, capsys):
    gold_dir = tmp_path / "gold"
    assert main(["gold", "--out-dir", str(gold_dir)]) == 0
    capsys.readouterr()
    for name in CASE_NAMES:
        for ext in ("gold.json", "gold.toon"):
            rc = main(["validate", str(gold_dir / f"{name}.{ext}"), name])
            assert rc == 0, (name, ext)
            assert "valid" in capsys.readouterr().err


def test_validate_wrong_payload_exits_one(tmp_path, capsys, case_by_name):
    wrong = dict(case_by_name["order"].gold)
    wrong["id"] = 999
    p = tmp_path / "wrong.json"
    p.write_text(emit_canonical_json(wrong))
    assert main(["validate", str(p), "order"]) == 1
    assert "$.id" in capsys.readouterr().err


def test_validate_schema_violation_exits_one(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"id": "not-an-int"}')
    assert main(["validate", str(p), "order"]) == 1
    assert capsys.readouterr().err


def test_validate_unknown_case_is_usage_error(tmp_path, capsys):
    p = tmp_path / "x.json"
    p.write_text("{}")
    with pytest.raises(SystemExit) as ei:
        main(["validate", str(p), "nope"])
    assert ei.value.code == 2


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["frobnicate"])
    assert ei.value.code == 2


# -- bench / report ----------------------------------------------------------


def test_bench_and_report_end_to_end(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"provider": "mock", "models": ["oracle-1"],
                               "runs": 10}))
    out = tmp_path / "results.csv"
    log = tmp_path / "attempts.jsonl"
    assert main(["bench", "--config", str(cfg), "--output", str(out),
                 "--attempt-log", str(log)]) == 0
    rows = list(csv.DictReader(open(out)))
    assert len(rows) == 120
    assert len(log.read_text().splitlines()) == 120
    report_dir = tmp_path / "report"
    assert main(["report", str(out), "--out-dir", str(report_dir)]) == 0
    assert (report_dir / "report.txt").exists()
    assert (report_dir / "figure_aligned.tsv").exists()
    assert (report_dir / "figure_non_aligned.svg").exists()


def test_bench_missing_config_exits_two(tmp_path, capsys):
    assert main(["bench", "--config", str(tmp_path / "nope.json")]) == 2


def test_bench_invalid_config_exits_two(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"provider": "mock", "models": []}))
    assert main(["bench", "--config", str(cfg)]) == 2
    assert "error:" in capsys.readouterr().err


def test_bench_with_a_missing_template_dir_exits_two(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"provider": "mock", "models": ["m"],
                               "template_dir": str(tmp_path / "nope")}))
    assert main(["bench", "--config", str(cfg), "--output", str(tmp_path / "r.csv")]) == 2
    assert "template_dir" in capsys.readouterr().err


def test_report_bad_csv_exits_two(tmp_path, capsys):
    p = tmp_path / "bad.csv"
    p.write_text("nope\n1\n")
    assert main(["report", str(p), "--out-dir", str(tmp_path / "out")]) == 2


def test_report_custom_grouping_file(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"provider": "mock", "models": ["m"],
                               "runs": 1}))
    out = tmp_path / "r.csv"
    assert main(["bench", "--config", str(cfg), "--output", str(out)]) == 0
    grouping = tmp_path / "groups.json"
    grouping.write_text(json.dumps({"solo": ["invoice"]}))
    rdir = tmp_path / "rep"
    assert main(["report", str(out), "--out-dir", str(rdir),
                 "--grouping", str(grouping)]) == 0
    assert (rdir / "figure_solo.tsv").exists()


@pytest.mark.parametrize("groups", ['{"g": "users"}', '["users"]', '{"g": 5}'])
def test_report_bad_grouping_exits_two(tmp_path, capsys, groups):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"provider": "mock", "models": ["m"],
                               "runs": 1}))
    out = tmp_path / "r.csv"
    assert main(["bench", "--config", str(cfg), "--output", str(out)]) == 0
    grouping = tmp_path / "groups.json"
    grouping.write_text(groups)
    rdir = tmp_path / "rep"
    assert main(["report", str(out), "--out-dir", str(rdir),
                 "--grouping", str(grouping)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not rdir.exists()


# -- mask-sim ----------------------------------------------------------------


def test_mask_sim_toon_with_schema(tmp_path, capsys, case_by_name):
    out = tmp_path / "sim.toon"
    assert main(["mask-sim", "--mode", "toon", "--case", "order",
                 "--seed", "7", "-o", str(out)]) == 0
    from toonbench.schemas import validate
    doc = parse_toon(out.read_text())
    assert validate(doc.root, case_by_name["order"].schema) == []
    assert "legal tokens" in capsys.readouterr().err


def test_mask_sim_json_mode_parses(capsys):
    assert main(["mask-sim", "--mode", "json", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert isinstance(parse_json(out), dict)


def test_mask_sim_deterministic(tmp_path, capsys):
    a = tmp_path / "a.toon"
    b = tmp_path / "b.toon"
    assert main(["mask-sim", "--case", "users", "--seed", "11",
                 "-o", str(a)]) == 0
    assert main(["mask-sim", "--case", "users", "--seed", "11",
                 "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_mask_sim_with_a_saved_copy_of_the_toy_vocabulary(tmp_path, capsys, vocab):
    """``--vocab`` reads a vocabulary file; a copy of the shipped one gives
    the document of the default run."""
    path = tmp_path / "toy.vocab"
    save_vocabulary(vocab, path)
    a, b = tmp_path / "a.toon", tmp_path / "b.toon"
    assert main(["mask-sim", "--seed", "3", "-o", str(a)]) == 0
    assert main(["mask-sim", "--seed", "3", "--vocab", str(path), "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes() and len(a.read_bytes()) >= 12


def test_mask_sim_stats(capsys):
    assert main(["mask-sim", "--seed", "3", "--stats", "-o", os.devnull]) == 0
    err = capsys.readouterr().err
    steps = err.count("legal tokens")
    m = re.search(r"mask cache: (\d+) hits, (\d+) misses \((\d+) us per miss\), "
                  r"(\d+) entries, (\d+) closures built", err)
    assert m is not None, err
    hits, misses, _, entries, closures = map(int, m.groups())
    assert hits + misses == steps and misses == entries > 0
    assert closures >= 1
    m = re.search(r"local states: (\d+) hits, (\d+) misses, (\d+) entries", err)
    assert m is not None, err
    local_hits, local_misses, local_entries = map(int, m.groups())
    assert local_hits + local_misses == misses and local_misses == local_entries > 0
    assert main(["mask-sim", "--seed", "3"]) == 0
    assert "mask cache" not in capsys.readouterr().err


def _nesting(value) -> int:
    """Containers on the deepest path of ``value``, the root's included."""
    if isinstance(value, dict):
        return 1 + max(map(_nesting, value.values()), default=0)
    if isinstance(value, list):
        return 1 + max(map(_nesting, value), default=0)
    return 0


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("mode", ["toon", "json"])
def test_mask_sim_documents_nest_two_levels_below_the_root(capsys, mode, seed):
    assert main(["mask-sim", "--mode", mode, "--seed", str(seed)]) == 0
    out = capsys.readouterr().out
    doc = parse_toon(out).root if mode == "toon" else parse_json(out)
    assert _nesting(doc) >= 3, out
