"""Aggregation and reporting over benchmark result CSVs.

Three views: per-model averages of run-level metrics, per-case averages
across all models and runs, and token efficiency (final accuracy per 1000
tokens) for configurable case groups.  Everything renders deterministically:
the same CSV always yields byte-identical report artifacts.
"""

from __future__ import annotations

import csv
from decimal import Decimal, ROUND_HALF_UP
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .harness import CSV_COLUMNS
from .prompts import TRACKS

DEFAULT_GROUPING = {
    "aligned": ("users", "order"),
    "non_aligned": ("invoice", "company"),
}


class SchemaError(Exception):
    """The results CSV does not have the expected shape."""


def load_results(csv_path) -> List[dict]:
    """Read and type-check case-level result rows."""
    rows = []
    with open(csv_path, newline="", encoding="utf-8") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames is None or tuple(reader.fieldnames) != CSV_COLUMNS:
            raise SchemaError(
                f"expected columns {CSV_COLUMNS}, found {reader.fieldnames}")
        for lineno, raw in enumerate(reader, 2):
            try:
                rows.append({
                    "model": raw["model"],
                    "run_index": int(raw["run_index"]),
                    "case": raw["case"],
                    "track": raw["track"],
                    "one_shot_success": bool(int(raw["one_shot_success"])),
                    "final_success": bool(int(raw["final_success"])),
                    "attempts": int(raw["attempts"]),
                    "tokens": int(raw["prompt_tokens"]) + int(raw["completion_tokens"]),
                    "flags": raw["flags"],
                })
            except (TypeError, ValueError, KeyError) as e:
                raise SchemaError(f"{csv_path}:{lineno}: bad row: {e}")
    for row in rows:
        if row["final_success"] < row["one_shot_success"]:
            raise SchemaError("one_shot_success without final_success")
    return rows


def _mean(xs: Sequence[float]) -> float:
    return sum(xs) / len(xs)


def _run_level(rows: List[dict]) -> Dict[tuple, Dict[str, dict]]:
    """(model, run_index) -> track -> {one_shot, final, tokens} where the
    accuracies are fractions of the run's cases and tokens the absolute sum."""
    runs: Dict[tuple, Dict[str, List[dict]]] = {}
    for r in rows:
        runs.setdefault((r["model"], r["run_index"]), {}) \
            .setdefault(r["track"], []).append(r)
    out: Dict[tuple, Dict[str, dict]] = {}
    for key, by_track in runs.items():
        out[key] = {}
        for track, cells in by_track.items():
            out[key][track] = {
                "one_shot": _mean([c["one_shot_success"] for c in cells]),
                "final": _mean([c["final_success"] for c in cells]),
                "tokens": sum(c["tokens"] for c in cells),
            }
    return out


def aggregate_by_model(rows: List[dict]) -> Dict[str, Dict[str, dict]]:
    """model -> track -> mean over runs of {one_shot, final, tokens}."""
    run_level = _run_level(rows)
    acc: Dict[str, Dict[str, List[dict]]] = {}
    for (model, _run), by_track in run_level.items():
        for track, m in by_track.items():
            acc.setdefault(model, {}).setdefault(track, []).append(m)
    table: Dict[str, Dict[str, dict]] = {}
    for model in sorted(acc):
        table[model] = {}
        for track, ms in acc[model].items():
            table[model][track] = {
                "one_shot": _mean([m["one_shot"] for m in ms]),
                "final": _mean([m["final"] for m in ms]),
                "tokens": _mean([m["tokens"] for m in ms]),
            }
    return table


def aggregate_by_case(rows: List[dict]) -> Dict[str, Dict[str, dict]]:
    """case -> track -> means across every model and run; the token figure is
    the mean per-case prompt+completion total."""
    acc: Dict[str, Dict[str, List[dict]]] = {}
    for r in rows:
        acc.setdefault(r["case"], {}).setdefault(r["track"], []).append(r)
    table: Dict[str, Dict[str, dict]] = {}
    for case in sorted(acc):
        table[case] = {}
        for track, cells in acc[case].items():
            table[case][track] = {
                "one_shot": _mean([c["one_shot_success"] for c in cells]),
                "final": _mean([c["final_success"] for c in cells]),
                "tokens": _mean([c["tokens"] for c in cells]),
            }
    return table


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
    seen: set = set()
    for name, cases in grouping.items():
        dup = seen.intersection(cases)
        if dup:
            raise ValueError(f"case groups must be disjoint; {sorted(dup)} repeat")
        seen.update(cases)

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
                finals, tokens = [], []
                for case in cases:
                    cells = per_case.get((model, track, case))
                    if not cells:
                        continue
                    finals.append(_mean([c["final_success"] for c in cells]))
                    tokens.append(_mean([c["tokens"] for c in cells]))
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
    tracks = [t for t in TRACKS if any(r["track"] == t for r in rows)]

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
