"""Per-layer metrics: which public functions are traced, the counters kept
at each boundary, and how the traced run's spans become metrics."""

from __future__ import annotations

from typing import Dict

from measure import percentile
from spans import Tracer


def _count_input(prefix: str):
    def count(counts, args, result, error):
        counts[prefix + ".bytes"] += len(args[0].encode("utf-8"))
        if error is not None:
            counts[prefix + ".errors"] += 1
    return count


def _count_validate(counts, args, result, error):
    if result:
        counts["schemas.validate.errors"] += 1


def _count_deep_equal(counts, args, result, error):
    if result is not None and not result[0]:
        counts["values.deep_equal.mismatches"] += 1


def _count_mask(counts, args, result, error):
    if result is not None:
        counts["mask.allowed_mask.allowed"] += len(result.allowed)


def patch_decoding(tracer: Tracer, caller) -> None:
    """Trace the decode → validate → diff functions at the module ``caller``
    that looks them up."""
    tracer.patch(caller, "parse_toon", "toon.parse_toon", _count_input("toon.parse_toon"))
    tracer.patch(caller, "parse_json", "values.parse_json", _count_input("values.parse_json"))
    tracer.patch(caller, "validate", "schemas.validate", _count_validate)
    tracer.patch(caller, "deep_equal", "values.deep_equal", _count_deep_equal)


def patch_mask(tracer: Tracer, engine) -> None:
    """Trace the calls ``constrained_generate`` makes into the mask engine."""
    tracer.patch(engine, "allowed_mask", "mask.allowed_mask", _count_mask)
    tracer.patch(engine, "advance", "mask.advance")


# Per-layer metrics that do not come from spans; a workload that does not
# exercise the layer reports them as 0.
EXTRAS = ("harness.useful_attempt_ratio", "mask.automaton.toon.bytes_per_s",
          "mask.automaton.toon_schema.bytes_per_s", "mask.automaton.json.bytes_per_s",
          "mask.vocab.build_s", "trace.overhead_share")

_CALLS = ("prompts.render", "toon.parse_toon", "values.parse_json",
          "schemas.validate", "values.deep_equal", "client.complete",
          "mask.allowed_mask", "mask.advance")
_SELF_MS = _CALLS + ("toon.extract_toon_block", "harness.run_case",
                     "harness.run_benchmark", "mask.constrained_generate", "policy")
_COUNTS = ("toon.parse_toon.bytes", "toon.parse_toon.errors",
           "values.parse_json.bytes", "values.parse_json.errors",
           "schemas.validate.errors", "values.deep_equal.mismatches")


def layer_metrics(tracer: Tracer, extras: Dict[str, float]) -> Dict[str, float]:
    self_ns = tracer.self_ns()
    calls = tracer.calls()
    m: Dict[str, float] = {}
    for name in _CALLS:
        m[name + ".calls"] = calls[name]
    for name in _SELF_MS:
        m[name + ".self_ms"] = self_ns.get(name, 0) / 1e6
    m["report.emit_report.ms"] = self_ns.get("report.emit_report", 0) / 1e6
    for name in _COUNTS:
        m[name] = tracer.counts[name]
    mask_us = [d / 1000 for d in tracer.durations_ns("mask.allowed_mask")]
    m["mask.allowed_mask.us_p50"] = percentile(mask_us, 50) if mask_us else 0.0
    m["mask.allowed_mask.us_p95"] = percentile(mask_us, 95) if mask_us else 0.0
    m["mask.allowed_mask.allowed_mean"] = (
        tracer.counts["mask.allowed_mask.allowed"] / len(mask_us) if mask_us else 0.0)
    for name in EXTRAS:
        m[name] = extras.get(name, 0.0)
    return m
