"""The toonbench benchmark: one seeded workload per process.

    python3 benchmarks/run.py --workload bench_repair --seed 1 --seconds 20 --trace 0

Workloads: bench_repair (the repair-loop sweep), mask_fresh (target forcing
of new documents through the token mask) and mask_repeat (the same for the
four gold documents, with the mask cache warm).  With ``--trace 0`` the run
reports the end-to-end metrics; with ``--trace 1`` it measures the same work
untraced and then traced, and reports the per-layer metrics.  Metric names
and units are those in BENCHMARK.json.  Every output is checked; the last
line of stdout is one JSON object with the verdict and the metrics.

The program is imported from ``src/`` of the checkout this file lives in;
without it the benchmark exits with an error.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".benchrun"  # scratch files and span dumps; never committed


# Each workload is the module of its name, with the same functions:
#   setup(seed) -> state                timed as setup_s, SETUP_REPETITIONS times
#   prepare(state, result)              optional: untimed work before measuring
#   run(state, result, workdir, tracer=None, seconds=0.0, units=None) -> Pass
#                                       a pass until ``seconds`` or over ``units``
#   summarize(Pass, result)             the rate and step metrics
#   extras(Pass, state) -> dict         per-layer metrics not made of spans
#   retrace(state) -> state             optional: where the traced pass starts
WORKLOADS = ("bench_repair", "mask_fresh", "mask_repeat")


def measure(name: str, seed: int, seconds: float, trace: bool, workdir: Path):
    from layers import layer_metrics
    from measure import Result, peak_rss_mb, timed_setup
    from spans import Tracer

    w = importlib.import_module(name)
    state, setup_s = timed_setup(lambda: w.setup(seed), w.SETUP_REPETITIONS)
    result = Result()
    getattr(w, "prepare", lambda state, result: None)(state, result)
    if not trace:
        done = w.run(state, result, workdir, seconds=seconds)
        w.summarize(done, result)
        result.metrics["setup_s"] = setup_s
        result.metrics["peak_rss_mb"] = peak_rss_mb()
        result.metrics["success_share"] = (result.attempted - result.failed) / result.attempted
        return result
    # Each pass's garbage collections should walk only the objects it
    # creates: the traced pass of mask_fresh starts from a second, empty mask
    # cache while the first one stays alive.
    gc.freeze()
    plain = w.run(state, result, workdir, seconds=seconds / 2)
    gc.freeze()
    tracer = Tracer()
    start = getattr(w, "retrace", lambda state: state)(state)
    try:
        traced = w.run(start, result, workdir, tracer=tracer, units=plain.units)
    finally:
        tracer.restore()
    extras = w.extras(traced, state)
    extras["trace.overhead_share"] = sum(traced.walls) / sum(plain.walls)
    result.metrics = layer_metrics(tracer, extras)
    dump = OUT / f"spans-{name}-seed{seed}.jsonl"
    tracer.dump(dump)
    result.notes.append(f"spans: {len(tracer.spans)} written to {dump.relative_to(ROOT)}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "toonbench" / "__init__.py").is_file():
        print(f"error: toonbench sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                         workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    names = [m["name"] for m in wanted]
    if sorted(result.metrics) != sorted(names):
        print(f"error: measured {sorted(result.metrics)}, BENCHMARK.json lists {names}",
              file=sys.stderr)
        return 3
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for m in wanted:
        print(f"  {m['name']:42} {result.metrics[m['name']]:14.6g} {m['unit']}")
    print(f"  failed_share = {result.failed}/{result.attempted} = "
          f"{result.failed / result.attempted:.4f} ({result.wrong} wrong outputs)")
    for note in result.notes:
        print("  " + note)
    print(json.dumps({
        "correct": result.wrong == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {m["name"]: {"value": result.metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    # Skip interpreter teardown: freeing the never-evicted mask cache object
    # by object took ~10 s after a mask_repeat run.
    os._exit(code)
