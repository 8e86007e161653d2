"""Prompt rendering for the three benchmark tracks.

Tracks:
  J    plain JSON generation — the case's task body verbatim
  JSO  JSON with constrained decoding — same prompt text as J (the request
       options differ, not the prompt)
  T    TOON generation — a universal instruction block (rules + one shared
       reference example, identical for every case) followed by the task

Templates are shipped as package resources, read once per name, and can be
overridden by pointing ``template_dir`` at a directory with files of the same
names, which is read on every call.
"""

from __future__ import annotations

from functools import lru_cache
from importlib import resources
from pathlib import Path
from string import Template
from typing import Optional

from .schemas import CaseSpec

TRACKS = ("J", "JSO", "T")

_TASK_INDENT = " " * 8


@lru_cache(maxsize=None)
def _packaged(name: str) -> str:
    return (resources.files(__package__) / "templates" / name).read_text(encoding="utf-8")


def _load_template(name: str, template_dir: Optional[str] = None) -> str:
    if template_dir is not None:
        return Path(template_dir, name).read_text(encoding="utf-8")
    return _packaged(name)


def _check_track(track: str) -> None:
    if track not in TRACKS:
        raise ValueError(f"unknown track {track!r}; expected one of {TRACKS}")


def render_prompt(case: CaseSpec, track: str,
                  template_dir: Optional[str] = None) -> str:
    """The first-attempt prompt for a case on a track.  Deterministic and
    pure; J and JSO are byte-identical, and T prompts differ across cases
    only in the text after ``TASK:``."""
    _check_track(track)
    if track in ("J", "JSO"):
        return case.task_body
    tmpl = Template(_load_template("toon_prompt.txt", template_dir))
    task_lines = case.toon_task_body.rstrip("\n").split("\n")
    task = "\n".join(_TASK_INDENT + line if line else line for line in task_lines)
    return tmpl.substitute(task=task)


def render_repair_prompt(case: CaseSpec, track: str, previous_output: str,
                         error_text: str,
                         template_dir: Optional[str] = None) -> str:
    """The re-prompt after a failed attempt: the original prompt plus the
    latest failed output and its error text (only the most recent output is
    embedded, so prompt size stays bounded across repair rounds)."""
    _check_track(track)
    if not error_text:
        raise ValueError("error_text must be non-empty for a repair prompt")
    original = render_prompt(case, track, template_dir)
    tmpl = Template(_load_template("repair_prompt.txt", template_dir))
    return tmpl.substitute(
        original=original.rstrip("\n"),
        previous=previous_output.rstrip("\n"),
        errors=error_text.rstrip("\n"),
        fmt="TOON" if track == "T" else "JSON",
    )
