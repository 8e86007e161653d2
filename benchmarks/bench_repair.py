"""bench_repair: the repair-loop sweep researchers run, against a mock
provider whose faults are planned in advance.

A closed loop with parallelism 1: ``run_benchmark`` over 2 models × RUNS
runs × 4 cases × 3 tracks, then ``emit_report`` on its CSV.  Sweeps repeat
until the run's seconds are spent; each has its own fault plan.
"""

from __future__ import annotations

import csv
import json
import random
import shutil
import statistics
import time
from collections import Counter
from pathlib import Path

import toonbench.harness as harness
from toonbench.client import ApiError, ChatResponse, estimate_tokens
from toonbench.prompts import TRACKS, render_prompt
from toonbench.report import DEFAULT_GROUPING, emit_report
from toonbench.schemas import CASE_NAMES, builtin_cases

from inputs import answer_table, expected_outcome, plan_sweep
from layers import patch_decoding
from measure import Pass, Result, rate_metrics, schedule

MODELS = ("mock-a", "mock-b")
RUNS = 20
MAX_REPAIRS = 3
CONFIG = {"provider": "mock", "models": list(MODELS), "runs": RUNS,
          "max_repairs": MAX_REPAIRS, "parallelism": 1}
PLAN_SHAPE = {"models": MODELS, "runs": RUNS, "cases": CASE_NAMES, "tracks": TRACKS}
SETUP_REPETITIONS = 21
PLANNED_SWEEPS = 8  # planned during set-up; any further sweep is planned lazily
MIN_SWEEPS = 3


class UnplannedRequest(RuntimeError):
    pass


class PlannedProvider:
    """Mock provider that answers each attempt from the fault plan.

    A first-attempt prompt opens the next run of its (model, case, track);
    any other prompt must be a repair prompt of the open cell.  Usage is
    ceil(bytes / 4) of prompt and answer, kept per cell so the CSV can be
    checked against it.  Time spent in here is the benchmark's own; the gaps
    between one return and the next call are the harness's steps."""

    def __init__(self, plan, first_prompts):
        self.plan = plan
        self.first_prompts = first_prompts  # (prompt, response_format) -> (case, track)
        self.originals = {ct: p.rstrip("\n") for (p, _), ct in first_prompts.items()}
        self.runs_started: Counter = Counter()
        self.cell = None
        self.attempt = 0
        self.usage = {}  # cell -> [prompt tokens, completion tokens]
        self.completion_tokens = 0
        self.busy = 0.0
        self.steps = []
        self._last_return = None

    def complete(self, req):
        t0 = time.perf_counter()
        if self._last_return is not None:
            self.steps.append(t0 - self._last_return)
        try:
            return self._answer(req)
        finally:
            self._last_return = time.perf_counter()
            self.busy += self._last_return - t0

    def _answer(self, req):
        prompt = req.messages[-1][1]
        opened = self.first_prompts.get((prompt, req.response_format))
        if opened is not None:
            case, track = opened
            key = (req.model, case, track)
            self.runs_started[key] += 1
            self.cell = (req.model, self.runs_started[key], case, track)
            self.attempt = 0
            self.usage[self.cell] = [0, 0]
        elif self.cell is None or not prompt.startswith(self.originals[self.cell[2:]]):
            raise UnplannedRequest(f"prompt matches no open cell: {prompt[:60]!r}")
        attempts = self.plan.get(self.cell)
        if attempts is None or self.attempt >= len(attempts):
            raise UnplannedRequest(f"attempt {self.attempt + 1} of {self.cell} not planned")
        fault, answer = attempts[self.attempt]
        self.attempt += 1
        if fault == "api_error":
            raise ApiError(429, "injected rate limit")
        p, c = estimate_tokens(prompt), estimate_tokens(answer)
        self.usage[self.cell][0] += p
        self.usage[self.cell][1] += c
        self.completion_tokens += c
        return ChatResponse(answer, p, c)


def expected_rows(plan, usage):
    """The CSV rows the harness must write for a planned sweep, in its order."""
    rows = []
    for cell in sorted(plan):
        model, run, case, track = cell
        outcomes = [expected_outcome(f, track) for f, _ in plan[cell]]
        p, c = usage.get(cell, (0, 0))
        rows.append({"model": model, "run_index": str(run), "case": case,
                     "track": track,
                     "one_shot_success": str(int(outcomes[0] == "success")),
                     "final_success": str(int("success" in outcomes)),
                     "attempts": str(len(outcomes)),
                     "prompt_tokens": str(p), "completion_tokens": str(c),
                     "flags": "all_transport" if all(o == "transport_error"
                                                     for o in outcomes) else ""})
    return rows


def _by_model_table(text: str):
    """model -> the cells of its row in report.txt's by-model table."""
    lines = text.split("\n")
    if "Average results by model" not in lines:
        return {}
    start = lines.index("Average results by model") + 2
    table = {}
    for line in lines[start + 2:]:
        if not line.strip():
            break
        cells = line.split()
        table[cells[0]] = cells[1:]
    return table


def _mean_of(rows, column):
    return statistics.fmean(int(r[column]) for r in rows)


def check_report(report_dir: Path, rows) -> list:
    """Problems with the report artifacts, judged against the expected rows."""
    problems = [f"figure_{group}.{ext} missing"
                for group in DEFAULT_GROUPING for ext in ("tsv", "svg")
                if not (report_dir / f"figure_{group}.{ext}").is_file()]
    report = report_dir / "report.txt"
    if problems or not report.is_file():
        return problems + ["report.txt missing"]
    table = _by_model_table(report.read_text(encoding="utf-8"))
    for model in MODELS:
        shown = table.get(model, [])
        if len(shown) != 3 * len(TRACKS):
            problems.append(f"report.txt has no full row for {model}")
            continue
        for i, track in enumerate(TRACKS):
            cells = [r for r in rows if r["model"] == model and r["track"] == track]
            for j, column in enumerate(("one_shot_success", "final_success")):
                want = 100 * _mean_of(cells, column)
                got = float(shown[3 * i + j].rstrip("%"))
                if abs(got - want) > 0.05 + 1e-9:
                    problems.append(f"report.txt {model} {track} {column}: "
                                    f"{got} != {want:.3f}")
    for group, cases in DEFAULT_GROUPING.items():
        with open(report_dir / f"figure_{group}.tsv", encoding="utf-8") as f:
            shown = {(r["model"], r["track"]): float(r["efficiency"])
                     for r in csv.DictReader(f, delimiter="\t")}
        for model in MODELS:
            for track in TRACKS:
                finals, tokens = [], []
                for case in cases:
                    cells = [r for r in rows
                             if (r["model"], r["track"], r["case"]) == (model, track, case)]
                    finals.append(_mean_of(cells, "final_success"))
                    tokens.append(_mean_of(cells, "prompt_tokens")
                                  + _mean_of(cells, "completion_tokens"))
                want = statistics.fmean(finals) / (statistics.fmean(tokens) / 1000)
                got = shown.get((model, track))
                if got is None or abs(got - want) > 1e-6:
                    problems.append(f"figure_{group}.tsv {model} {track}: {got} != {want}")
    return problems


class Sweeps:
    """Set-up: the mock's answer variants, the first-attempt prompt table,
    and the fault plans of the first sweeps."""

    def __init__(self, seed: int):
        self.rng = random.Random(f"faults:{seed}")
        self.answers = answer_table()
        self.first_prompts = {
            (render_prompt(c, t), "json_object" if t == "JSO" else None): (c.name, t)
            for c in builtin_cases() for t in TRACKS}
        self.plans = [self._plan() for _ in range(PLANNED_SWEEPS)]

    def _plan(self):
        return plan_sweep(self.rng, PLAN_SHAPE, self.answers, MAX_REPAIRS)

    def plan(self, i: int):
        while len(self.plans) <= i:
            self.plans.append(self._plan())
        return self.plans[i]


def setup(seed: int) -> Sweeps:
    return Sweeps(seed)


def patch(tracer) -> None:
    tracer.patch(harness, "render_prompt", "prompts.render")
    tracer.patch(harness, "render_repair_prompt", "prompts.render")
    tracer.patch(harness, "extract_toon_block", "toon.extract_toon_block")
    tracer.patch(harness, "run_case", "harness.run_case")
    patch_decoding(tracer, harness)


def _sweep(sweeps: Sweeps, i: int, workdir: Path, result: Result, tracer):
    """Sweep ``i`` and its checks: (provider, wall seconds, attempt outcomes)."""
    plan = sweeps.plan(i)
    provider = PlannedProvider(plan, sweeps.first_prompts)
    run, report = harness.run_benchmark, emit_report
    if tracer is not None:
        provider.complete = tracer.wrap("client.complete", provider.complete)
        run = tracer.wrap("harness.run_benchmark", run)
        report = tracer.wrap("report.emit_report", report)
    out = workdir / f"sweep{i}"
    out.mkdir(parents=True)
    csv_path, log_path = out / "results.csv", out / "attempts.jsonl"
    t0 = time.perf_counter()
    try:
        run(CONFIG, csv_path, log_path, client=provider)
        report(csv_path, out / "report")
    except UnplannedRequest as e:
        wall = time.perf_counter() - t0
        for _ in plan:
            result.record(False, what=f"sweep {i} aborted: {e}")
        shutil.rmtree(out)
        return provider, wall, Counter()
    wall = time.perf_counter() - t0

    want = expected_rows(plan, provider.usage)
    with open(csv_path, newline="", encoding="utf-8") as f:
        got = list(csv.DictReader(f))
    for j, row in enumerate(want):
        seen = got[j] if j < len(got) else None
        result.record(seen == row, what=f"sweep {i} csv row {j}: {seen} != {row}")
    problems = check_report(out / "report", want)
    result.record(not problems, what="; ".join(problems[:3]))
    with open(log_path, encoding="utf-8") as f:
        outcomes = Counter(json.loads(line)["outcome"] for line in f)
    planned = Counter(expected_outcome(fault, cell[3])
                      for cell, attempts in plan.items() for fault, _ in attempts)
    result.record(outcomes == planned,
                  what=f"attempt log {dict(outcomes)} != plan {dict(planned)}")
    shutil.rmtree(out)
    return provider, wall, outcomes


def run(sweeps: Sweeps, result: Result, workdir: Path, tracer=None,
        seconds: float = 0.0, units=None) -> Pass:
    if tracer is not None:
        patch(tracer)
    done = Pass()
    for i in schedule(seconds, units, MIN_SWEEPS):
        provider, wall, outcomes = _sweep(sweeps, i, workdir, result, tracer)
        done.add(i, wall, provider.busy, provider.completion_tokens, provider.steps)
        done.counts.update(outcomes)
    return done


def summarize(done: Pass, result: Result) -> None:
    cells = len(MODELS) * RUNS * len(CASE_NAMES) * len(TRACKS)
    rate_metrics(result, done, cells * len(done.walls),
                 "harness step between two provider calls")


def extras(done: Pass, sweeps: Sweeps) -> dict:
    total = sum(done.counts.values())
    return {"harness.useful_attempt_ratio": done.counts["success"] / total}
