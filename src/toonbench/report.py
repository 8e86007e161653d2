"""Aggregation and reporting over benchmark result CSVs.

Three views: per-model averages of run-level metrics, per-case averages
across all models and runs, and token efficiency (final accuracy per 1000
tokens) for configurable case groups.  Everything renders deterministically:
the same CSV always yields byte-identical report artifacts.
"""

from __future__ import annotations

import csv
from decimal import Decimal, ROUND_HALF_UP
from operator import itemgetter
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .harness import CSV_COLUMNS, cell_key, parse_row
from .prompts import TRACKS
from .schemas import CASE_NAMES

DEFAULT_GROUPING = {
    "aligned": ("users", "order"),
    "non_aligned": ("invoice", "company"),
}


class SchemaError(Exception):
    """The results CSV does not have the expected shape."""


def load_results(csv_path) -> List[dict]:
    """The result rows, each checked by ``harness.parse_row`` and each of
    its own cell, as dicts of model, run_index, case, track, one_shot and
    final (0 or 1) and tokens (prompt plus completion)."""
    rows, cells = [], set()
    with open(csv_path, newline="", encoding="utf-8") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames is None or tuple(reader.fieldnames) != CSV_COLUMNS:
            raise SchemaError(
                f"expected columns {CSV_COLUMNS}, found {reader.fieldnames}")
        for raw in reader:
            try:
                row = parse_row(raw)
            except ValueError as e:
                raise SchemaError(f"{csv_path}:{reader.line_num}: bad row: {e}")
            if cell_key(row) in cells:
                raise SchemaError(f"{csv_path}:{reader.line_num}: bad row: "
                                  f"cell {cell_key(row)} has an earlier row")
            cells.add(cell_key(row))
            rows.append({"model": row["model"], "run_index": row["run_index"],
                         "case": row["case"], "track": row["track"],
                         "one_shot": row["one_shot_success"],
                         "final": row["final_success"],
                         "tokens": row["prompt_tokens"] + row["completion_tokens"]})
    return rows


def _mean(xs: Sequence[float]) -> float:
    return sum(xs) / len(xs)


def _figures(cells: List[dict], tokens=_mean) -> dict:
    """{one_shot, final, tokens} of ``cells``: the means of their one-shot
    and final success, and ``tokens`` (the mean, or the sum) of theirs."""
    return {"one_shot": _mean([c["one_shot"] for c in cells]),
            "final": _mean([c["final"] for c in cells]),
            "tokens": tokens([c["tokens"] for c in cells])}


def _table(cells: List[dict], key, tokens=_mean) -> Dict[object, Dict[str, dict]]:
    """key(cell) -> track -> the ``_figures`` of the cells with that key and
    track, keys in sorted order."""
    groups: Dict[object, Dict[str, List[dict]]] = {}
    for c in cells:
        groups.setdefault(key(c), {}).setdefault(c["track"], []).append(c)
    return {k: {track: _figures(group, tokens)
                for track, group in groups[k].items()}
            for k in sorted(groups)}


def aggregate_by_model(rows: List[dict]) -> Dict[str, Dict[str, dict]]:
    """model -> track -> mean over runs of {one_shot, final, tokens}, where a
    run's accuracies are fractions of its cases and its tokens their sum."""
    runs = _table(rows, itemgetter("model", "run_index"), sum)
    return _table([dict(figures, model=model, track=track)
                   for (model, _run), by_track in runs.items()
                   for track, figures in by_track.items()],
                  itemgetter("model"))


def aggregate_by_case(rows: List[dict]) -> Dict[str, Dict[str, dict]]:
    """case -> track -> means across every model and run; the token figure is
    the mean per-case prompt+completion total."""
    return _table(rows, itemgetter("case"))


def efficiency(rows: List[dict],
               grouping: Optional[Dict[str, Sequence[str]]] = None
               ) -> Dict[str, Dict[str, Dict[str, float]]]:
    """model -> track -> group -> final accuracy (fraction) per 1000 tokens.

    Each case in a group is weighted equally: the group accuracy is the mean
    of per-case mean final accuracies, the group cost the mean of per-case
    mean token totals.
    """
    if grouping is None:
        grouping = DEFAULT_GROUPING
    for name, cases in grouping.items():
        if not isinstance(cases, (list, tuple)) or not cases or \
                not all(c in CASE_NAMES for c in cases):
            raise ValueError(f"case group {name!r} must be a non-empty list "
                             f"of names among {CASE_NAMES}")
    named = [c for cases in grouping.values() for c in cases]
    dup = sorted({c for c in named if named.count(c) > 1})
    if dup:
        raise ValueError(f"case groups must be disjoint; {dup} repeat")

    per_case: Dict[tuple, List[dict]] = {}
    for r in rows:
        per_case.setdefault((r["model"], r["track"], r["case"]), []).append(r)

    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    models = sorted({r["model"] for r in rows})
    tracks = [t for t in TRACKS if any(r["track"] == t for r in rows)]
    for model in models:
        out[model] = {}
        for track in tracks:
            out[model][track] = {}
            for group, cases in grouping.items():
                figures = [_figures(per_case[model, track, case])
                           for case in cases if (model, track, case) in per_case]
                finals = [f["final"] for f in figures]
                tokens = [f["tokens"] for f in figures]
                # no cells, or only all_transport ones, which used no tokens
                if not any(tokens):
                    continue
                out[model][track][group] = _mean(finals) / (_mean(tokens) / 1000.0)
    return out


# -- rendering ---------------------------------------------------------------


def format_percent(fraction: float) -> str:
    """One decimal, half-up: 0.9285714 -> '92.9%'."""
    q = (Decimal(str(fraction)) * 100).quantize(Decimal("0.1"), ROUND_HALF_UP)
    return f"{q}%"


def format_tokens(tokens: float) -> str:
    return str(int(Decimal(str(tokens)).quantize(Decimal("1"), ROUND_HALF_UP)))


def _render_grid(title: str, header: List[str], body: List[List[str]]) -> List[str]:
    """A titled text grid: left-aligned columns two spaces apart, with a
    dashed rule under the header."""
    widths = [max(len(r[i]) for r in [header] + body) for i in range(len(header))]
    lines = [title, ""]
    for row in [header, ["-" * w for w in widths]] + body:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())
    lines.append("")
    return lines


def _render_table(title: str, row_label: str, table: Dict[str, Dict[str, dict]],
                  tracks: Sequence[str]) -> List[str]:
    header = [row_label]
    for t in tracks:
        header += [f"{t} 1-S", f"{t} Fin", f"{t} Tok"]
    body = []
    for name, by_track in table.items():
        row = [name]
        for t in tracks:
            m = by_track.get(t)
            if m is None:
                row += ["-", "-", "-"]
            else:
                row += [format_percent(m["one_shot"]), format_percent(m["final"]),
                        format_tokens(m["tokens"])]
        body.append(row)
    return _render_grid(title, header, body)


def _render_efficiency_table(eff, grouping) -> List[str]:
    header = ["model", "track"] + [f"{g} eff/1k" for g in grouping]
    body = []
    for model in eff:
        for track in eff[model]:
            row = [model, track]
            for g in grouping:
                v = eff[model][track].get(g)
                row.append("-" if v is None else f"{v:.3f}")
            body.append(row)
    return _render_grid("Token efficiency by case group", header, body)


def _figure_rows(eff, group: str) -> List[tuple]:
    rows = []
    for model in eff:
        for track in eff[model]:
            v = eff[model][track].get(group)
            if v is not None:
                rows.append((model, track, group, v))
    return rows


def _render_svg(title: str, rows: List[tuple]) -> str:
    """Minimal deterministic bar chart: one bar per (model, track)."""
    bar_w, gap, left, top, height = 28, 8, 60, 40, 220
    peak = max((r[3] for r in rows), default=1.0) or 1.0
    width = left + len(rows) * (bar_w + gap) + 20
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height + 120}" font-family="monospace" font-size="10">',
        f'<text x="{left}" y="20" font-size="13">{title}</text>',
        f'<line x1="{left - 5}" y1="{top}" x2="{left - 5}" '
        f'y2="{top + height}" stroke="black"/>',
        f'<line x1="{left - 5}" y1="{top + height}" x2="{width - 10}" '
        f'y2="{top + height}" stroke="black"/>',
        f'<text x="5" y="{top + 8}">{peak:.3f}</text>',
        f'<text x="5" y="{top + height}">0</text>',
    ]
    palette = {"J": "#4878a8", "JSO": "#58a868", "T": "#c88850"}
    for i, (model, track, _group, value) in enumerate(rows):
        h = round(height * value / peak, 1)
        x = left + i * (bar_w + gap)
        y = top + height - h
        parts.append(f'<rect x="{x}" y="{y}" width="{bar_w}" height="{h}" '
                     f'fill="{palette.get(track, "#888888")}"/>')
        parts.append(
            f'<text x="{x + bar_w / 2:.1f}" y="{top + height + 12}" '
            f'text-anchor="middle">{track}</text>')
        parts.append(
            f'<text x="{x + bar_w / 2:.1f}" y="{top + height + 26}" '
            f'text-anchor="middle" transform="rotate(45 {x + bar_w / 2:.1f} '
            f'{top + height + 26})">{model}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_report(csv_path, out_dir,
                grouping: Optional[Dict[str, Sequence[str]]] = None) -> List[Path]:
    """Write report.txt, one figure-data TSV per case group, and one SVG bar
    chart per group.  Returns the written paths."""
    if grouping is None:
        grouping = DEFAULT_GROUPING
    rows = load_results(csv_path)
    by_model = aggregate_by_model(rows)
    by_case = aggregate_by_case(rows)
    eff = efficiency(rows, grouping)
    tracks = list(next(iter(eff.values()), {}))  # each model lists them all

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []

    lines = [
        "Benchmark report",
        "================",
        "",
        "Efficiency unit: final accuracy as a fraction (1.0 = 100%) per 1000 tokens.",
        "",
    ]
    lines += _render_table("Average results by model", "model", by_model, tracks)
    lines += _render_table("Average results by test case", "case", by_case, tracks)
    lines += _render_efficiency_table(eff, grouping)
    report_path = out_dir / "report.txt"
    try:
        report_path.write_text("\n".join(lines), encoding="utf-8")
        written.append(report_path)
        for group in grouping:
            fig_rows = _figure_rows(eff, group)
            data_path = out_dir / f"figure_{group}.tsv"
            with open(data_path, "w", encoding="utf-8", newline="") as f:
                f.write("model\ttrack\tgroup\tefficiency\n")
                for model, track, g, v in fig_rows:
                    f.write(f"{model}\t{track}\t{g}\t{v:.6f}\n")
            written.append(data_path)
            svg_path = out_dir / f"figure_{group}.svg"
            svg_path.write_text(
                _render_svg(f"Efficiency by model ({group})", fig_rows),
                encoding="utf-8")
            written.append(svg_path)
    except OSError as e:
        raise OSError(f"cannot write report artifact under {out_dir}: {e}")
    return written
