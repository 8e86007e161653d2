"""Benchmark execution: model × case × track × run, with repair cycles.

Per attempt the pipeline is: render the prompt (or the repair prompt built
from the latest failed output), call the model, decode (TOON tracks go
through fence extraction and TOON parsing), validate against the case
schema, and compare with the gold payload (``==``; ``deep_equal`` locates
a mismatch).
Any failure produces error text that feeds the next repair prompt; a case
stops at the first success or after 1 + max_repairs attempts.

Results are written at case granularity to CSV (deterministically ordered)
and attempt by attempt to a JSON-lines log, each cell's lines as the cell
finishes; these two files are the only record of a sweep.  An interrupted
run resumes by skipping the cells of the CSV rows that pass ``parse_row``.
"""

from __future__ import annotations

import csv
import io
import json
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from .client import (DEFAULT_RETRIES, DEFAULT_TIMEOUT, ApiError, ChatRequest,
                     ChatResponse, TransportError, estimate_tokens)
from .prompts import TRACKS, render_prompt, render_repair_prompt
from .schemas import CaseSpec, CASE_NAMES, builtin_cases, validate
from .toon import ToonError, encode_toon, extract_toon_block, parse_toon
from .values import (JsonParseError, deep_equal, emit_canonical_json,
                     format_path, parse_json)

MAX_REPAIRS = 3

OUTCOMES = ("success", "decode_error", "validation_error", "mismatch",
            "transport_error")

CSV_COLUMNS = ("model", "run_index", "case", "track", "one_shot_success",
               "final_success", "attempts", "prompt_tokens",
               "completion_tokens", "flags")


class ConfigError(Exception):
    """Invalid benchmark configuration; raised before any network call."""


@dataclass(frozen=True)
class AttemptRecord:
    attempt_index: int  # 1-based; at most 1 + max_repairs
    outcome: str  # one of OUTCOMES
    prompt_tokens: int
    completion_tokens: int
    raw_output: str
    error_text: str = ""  # empty on success

    def __post_init__(self):
        assert self.outcome in OUTCOMES


@dataclass
class CaseResult:
    model: str
    case: str
    track: str
    attempts: List[AttemptRecord]
    flags: Tuple[str, ...] = ()

    @property
    def one_shot_success(self) -> bool:
        return bool(self.attempts) and self.attempts[0].outcome == "success"

    @property
    def final_success(self) -> bool:
        return any(a.outcome == "success" for a in self.attempts)

    @property
    def total_prompt_tokens(self) -> int:
        return sum(a.prompt_tokens for a in self.attempts)

    @property
    def total_completion_tokens(self) -> int:
        return sum(a.completion_tokens for a in self.attempts)


def _decode_output(content: str, track: str):
    """Raw model output -> Value, or raises with a repair-worthy message."""
    if track == "T":
        block = extract_toon_block(content)
        return parse_toon(block).root
    text = content.strip()
    if text.startswith("```"):
        # tolerate a fenced JSON answer: take the fence body
        lines = text.split("\n")
        closing = len(lines) - 1
        while closing > 0 and lines[closing].strip() != "```":
            closing -= 1
        text = "\n".join(lines[1:closing if closing > 0 else len(lines)])
    return parse_json(text)


def _attempt_outcome(content: str, case: CaseSpec, track: str):
    """Classify one model response: (outcome, error_text)."""
    try:
        value = _decode_output(content, track)
    except (ToonError, JsonParseError) as e:
        return "decode_error", str(e)
    errors = validate(value, case.schema)
    if errors:
        return "validation_error", "\n".join(str(e) for e in errors)
    # Exact: validation pinned every node's kind to the schema, as the gold
    # conforms too, so ``==`` cannot take True for 1 where deep_equal would
    # not; deep_equal only locates a mismatch.
    ok, diff = (True, None) if value == case.gold else deep_equal(case.gold, value)
    if ok:
        return "success", ""
    kind = diff.kind.replace("-", " ")
    return "mismatch", f"value at {format_path(diff.segments)} is wrong ({kind})"


def run_case(client, model: str, case: CaseSpec, track: str,
             max_repairs: int = MAX_REPAIRS,
             template_dir: Optional[str] = None) -> CaseResult:
    attempts: List[AttemptRecord] = []
    flags: set = set()
    prev_output = ""
    prev_error = ""
    for attempt_index in range(1, max_repairs + 2):
        if attempt_index == 1:
            prompt = render_prompt(case, track, template_dir)
        else:
            prompt = render_repair_prompt(case, track, prev_output, prev_error,
                                          template_dir)
        req = ChatRequest(model=model, messages=(("user", prompt),),
                          temperature=0.0,
                          response_format="json_object" if track == "JSO" else None)
        try:
            resp = client.complete(req)
        except (TransportError, ApiError) as e:
            # a transport failure consumes the attempt (transient retries
            # already happened inside the client, before any usage existed)
            attempts.append(AttemptRecord(attempt_index, "transport_error",
                                          0, 0, "", f"transport failure: {e}"))
            prev_output, prev_error = "", f"transport failure: {e}"
            continue
        if resp.usage_estimated:
            flags.add("estimated_usage")
        outcome, error_text = _attempt_outcome(resp.content, case, track)
        attempts.append(AttemptRecord(attempt_index, outcome,
                                      resp.prompt_tokens,
                                      resp.completion_tokens,
                                      resp.content, error_text))
        if outcome == "success":
            break
        prev_output, prev_error = resp.content, error_text
    if all(a.outcome == "transport_error" for a in attempts):
        flags.add("all_transport")  # no real model output; the cell is invalid
    return CaseResult(model, case.name, track, attempts, tuple(sorted(flags)))


# -- built-in gold-oracle mock provider --------------------------------------


def _gold_answer(case: CaseSpec, track: str) -> str:
    if track == "T":
        return "```toon\n" + encode_toon(case.gold) + "```\n"
    return emit_canonical_json(case.gold)


class GoldOracleClient:
    """Deterministic offline provider: answers the first-attempt prompt of
    each case and track, as ``render_prompt`` writes it from
    ``template_dir``, with the gold payload (fenced TOON on the T track,
    canonical JSON on the others) and usage set to the byte-length estimate.
    Any other prompt is refused with ApiError(400).  Used for dry runs and
    determinism checks."""

    def __init__(self, cases: Optional[Sequence[CaseSpec]] = None,
                 template_dir: Optional[str] = None, tracks: Sequence[str] = TRACKS):
        cases = builtin_cases() if cases is None else cases
        self._answers = {render_prompt(c, track, template_dir): _gold_answer(c, track)
                         for c in cases for track in tracks}

    def complete(self, req: ChatRequest) -> ChatResponse:
        prompt = req.messages[-1][1]
        content = self._answers.get(prompt)
        if content is None:
            raise ApiError(400, "prompt does not match any known case")
        return ChatResponse(content, estimate_tokens(prompt),
                            estimate_tokens(content))


def make_client(config: dict, timeout: float, retries: int):
    """The client that ``config`` names; ``timeout`` and ``retries`` are the
    values ``_validate_config`` checked."""
    provider = config.get("provider", "http")
    if provider == "mock":
        return GoldOracleClient(template_dir=config.get("template_dir"),
                                tracks=config.get("tracks", TRACKS))
    if provider == "http":
        from .client import HttpClient
        endpoint = config.get("endpoint")
        if not endpoint:
            raise ConfigError("http provider requires an 'endpoint'")
        return HttpClient(endpoint,
                          api_key_env=config.get("api_key_env", "TOONBENCH_API_KEY"),
                          timeout=timeout, retries=retries)
    raise ConfigError(f"unknown provider {provider!r}")


# -- full benchmark ----------------------------------------------------------


def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            config = json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}")
    except ValueError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}")
    if not isinstance(config, dict):
        raise ConfigError("config root must be an object")
    return config


def _names(config: dict, key: str, known: Optional[Sequence[str]]) -> list:
    """``config[key]``: a non-empty list of distinct strings, each among
    ``known`` unless that is None; all of ``known`` when the key is absent."""
    names = config.get(key, list(known or ()))
    if not isinstance(names, list) or not names or not all(
            isinstance(n, str) and (known is None or n in known) for n in names):
        raise ConfigError(f"'{key}' must be a non-empty list of names"
                          + (f" among {tuple(known)}" if known else ""))
    if len(set(names)) < len(names):
        raise ConfigError(f"'{key}' names an entry twice")
    return names


def _count(config: dict, key: str, default: int, least: int) -> int:
    value = config.get(key, default)
    if type(value) is not int or value < least:  # a bool is not a count
        raise ConfigError(f"'{key}' must be an integer of at least {least}")
    return value


def _check_templates(cfg: dict, repairs: bool) -> None:
    """Render each case and track's first prompt from ``cfg["template_dir"]``,
    and a repair prompt where ``repairs``, so that a template that is
    missing, unreadable or names an unknown placeholder stops the sweep
    before its first request."""
    template_dir = cfg["template_dir"]
    if not isinstance(template_dir, str):
        raise ConfigError("'template_dir' must be a directory path")
    try:
        for case in cfg["cases"]:
            for track in cfg["tracks"]:
                render_prompt(case, track, template_dir)
                if repairs:
                    render_repair_prompt(case, track, "", "error", template_dir)
    except KeyError as e:
        raise ConfigError(f"template_dir {template_dir}: unknown placeholder ${e.args[0]}")
    except (OSError, ValueError) as e:
        raise ConfigError(f"template_dir {template_dir}: {e}")


def _validate_config(config: dict) -> dict:
    retries = _count(config, "retries", DEFAULT_RETRIES, 0)
    timeout = config.get("timeout", DEFAULT_TIMEOUT)
    if type(timeout) not in (int, float) or not 0 < timeout < float("inf"):
        raise ConfigError("'timeout' must be a positive number of seconds")
    by_name = {c.name: c for c in builtin_cases()}
    cfg = {"timeout": float(timeout),
           "retries": retries,
           "models": _names(config, "models", None),
           "runs": _count(config, "runs", 10, 1),
           "tracks": _names(config, "tracks", TRACKS),
           "cases": [by_name[c] for c in _names(config, "cases", CASE_NAMES)],
           "max_repairs": _count(config, "max_repairs", MAX_REPAIRS, 0),
           "parallelism": _count(config, "parallelism", 1, 1),
           "template_dir": config.get("template_dir")}
    if cfg["template_dir"] is not None:
        # the mock answers every first prompt with the gold, so it never
        # gets a repair prompt
        _check_templates(cfg, cfg["max_repairs"] > 0
                         and config.get("provider", "http") != "mock")
    return cfg


# The cell a results row belongs to.  A CSV holds one row per cell: resume
# keeps the first row of a cell, and the report refuses a file that repeats one.
cell_key = itemgetter("model", "run_index", "case", "track")


def parse_row(raw: dict) -> dict:
    """A results-CSV row as ``csv.DictReader`` reads it, with its counts made
    ints.  Raises ValueError unless it has exactly the columns CSV_COLUMNS,
    its case is in CASE_NAMES and its track in TRACKS, every count is a
    non-negative integer, both success columns are 0 or 1, ``attempts`` is
    at least 1 and final_success is at least one_shot_success.  Resume keeps
    exactly the rows that pass; the report refuses a file with a row that
    fails."""
    if tuple(raw) != CSV_COLUMNS or None in raw.values():
        raise ValueError(f"expected the columns {CSV_COLUMNS}")
    if raw["case"] not in CASE_NAMES:
        raise ValueError(f"case {raw['case']!r} is not one of {CASE_NAMES}")
    if raw["track"] not in TRACKS:
        raise ValueError(f"track {raw['track']!r} is not one of {TRACKS}")
    row = dict(raw)
    for column in ("run_index", "one_shot_success", "final_success",
                   "attempts", "prompt_tokens", "completion_tokens"):
        if not (row[column].isascii() and row[column].isdigit()):
            raise ValueError(f"{column} {row[column]!r} is not a count")
        row[column] = int(row[column])
    if max(row["one_shot_success"], row["final_success"]) > 1:
        raise ValueError("a success column is neither 0 nor 1")
    if row["attempts"] < 1:
        raise ValueError("a cell makes at least one attempt")
    if row["final_success"] < row["one_shot_success"]:
        raise ValueError("one_shot_success without final_success")
    return row


def _whole_rows(csv_path: Path) -> List[dict]:
    """The rows of an earlier, possibly killed, run that are whole, typed by
    ``parse_row``.

    A kill can cut the last row anywhere, so a row counts only once its line
    has ended, and only if ``parse_row`` takes it and no earlier row holds
    its cell.  The cells of the other rows run again."""
    if not csv_path.exists():
        return []
    data = csv_path.read_bytes()
    text = data[:data.rfind(b"\n") + 1].decode("utf-8")
    rows, cells = [], set()
    for raw in csv.DictReader(io.StringIO(text, newline="")):
        try:
            row = parse_row(raw)
        except ValueError:
            continue
        if cell_key(row) not in cells:
            cells.add(cell_key(row))
            rows.append(row)
    return rows


def _write_rows(csv_path: Path, rows: Sequence[dict]) -> None:
    """Replace ``csv_path`` by header + ``rows`` in one step: written to a
    temporary file in the same directory, then renamed over it, so a kill
    leaves either the old file or the new one."""
    tmp = csv_path.with_name(csv_path.name + ".tmp")
    with open(tmp, "w", newline="", encoding="utf-8") as f:
        w = csv.DictWriter(f, fieldnames=CSV_COLUMNS)
        w.writeheader()
        w.writerows(rows)
    os.replace(tmp, csv_path)


def _csv_row(run_index: int, r: CaseResult) -> dict:
    return {"model": r.model, "run_index": run_index, "case": r.case,
            "track": r.track,
            "one_shot_success": int(r.one_shot_success),
            "final_success": int(r.final_success),
            "attempts": len(r.attempts),
            "prompt_tokens": r.total_prompt_tokens,
            "completion_tokens": r.total_completion_tokens,
            "flags": ";".join(r.flags)}


def run_benchmark(config: dict, out_csv, attempt_log=None,
                  client=None) -> None:
    """Execute every model × run × case × track cell, streaming case rows to
    ``out_csv`` as they finish and rewriting the file in deterministic order
    at the end.  Each finished cell's attempts are appended to
    ``attempt_log`` and flushed before its row.  Cells with a whole row in an
    existing CSV are skipped; a malformed row, such as one cut short by a
    kill, is dropped and its cell runs again."""
    cfg = _validate_config(config)
    if client is None:
        client = make_client(config, cfg["timeout"], cfg["retries"])
    out_csv = Path(out_csv)
    rows = _whole_rows(out_csv)
    done = set(map(cell_key, rows))

    cells = [(model, run, case, track)
             for model in cfg["models"]
             for run in range(1, cfg["runs"] + 1)
             for case in cfg["cases"]
             for track in cfg["tracks"]
             if (model, run, case.name, track) not in done]

    lock = threading.Lock()
    # Drop the malformed rows before new ones are appended after them.
    _write_rows(out_csv, rows)
    with open(out_csv, "a", newline="", encoding="utf-8") as stream, \
            nullcontext() if attempt_log is None else \
            open(attempt_log, "a", encoding="utf-8") as log:
        writer = csv.DictWriter(stream, fieldnames=CSV_COLUMNS)

        def work(cell):
            model, run, case, track = cell
            r = run_case(client, model, case, track, cfg["max_repairs"],
                         cfg["template_dir"])
            row = _csv_row(run, r)
            lines = "".join(json.dumps({"model": model, "run_index": run,
                                        "case": case.name, "track": track,
                                        **vars(a)}, sort_keys=True) + "\n"
                            for a in r.attempts)
            with lock:
                rows.append(row)
                if log is not None:  # the attempts land before their row
                    log.write(lines)
                    log.flush()
                writer.writerow(row)  # incremental flush for resumability
                stream.flush()

        if cfg["parallelism"] > 1:
            with ThreadPoolExecutor(max_workers=cfg["parallelism"]) as pool:
                list(pool.map(work, cells))
        else:
            for cell in cells:
                work(cell)

    # deterministic final ordering regardless of execution interleaving
    rows.sort(key=cell_key)
    _write_rows(out_csv, rows)
