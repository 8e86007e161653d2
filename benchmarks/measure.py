"""What every workload reports, and the statistics it is computed with."""

from __future__ import annotations

import math
import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass
class Result:
    """One workload run.  ``failed`` counts operations that did not produce
    their expected result; ``wrong`` counts the subset that produced a wrong
    output rather than refusing (the run is incorrect if any did)."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def record(self, ok: bool, refused: bool = False, what: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if not refused:
                self.wrong += 1
                if self.wrong <= 5:
                    self.notes.append(f"WRONG: {what}")


@dataclass
class Pass:
    """One pass of a workload over its units of work (sweeps, targets)."""

    units: list = field(default_factory=list)
    walls: List[float] = field(default_factory=list)  # per unit, model included
    busy: List[float] = field(default_factory=list)  # per unit, model only
    tokens: List[int] = field(default_factory=list)  # per unit, model output
    steps: List[float] = field(default_factory=list)  # program time per step
    counts: Counter = field(default_factory=Counter)  # workload-specific tallies

    def add(self, unit, wall: float, busy: float, tokens: int, steps) -> None:
        self.units.append(unit)
        self.walls.append(wall)
        self.busy.append(busy)
        self.tokens.append(tokens)
        self.steps.extend(steps)


def schedule(seconds: float, units: Optional[list] = None,
             minimum: int = 1) -> Iterator:
    """The units of a pass: exactly ``units`` when given (to repeat an
    earlier pass), else 0, 1, 2, ... until ``seconds`` have passed."""
    if units is not None:
        yield from units
        return
    deadline = time.perf_counter() + seconds
    i = 0
    while i < minimum or time.perf_counter() < deadline:
        yield i
        i += 1


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, 0 < q <= 100."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_setup(build: Callable, repetitions: int) -> Tuple[object, float]:
    """Run ``build`` several times; its last result and the median seconds."""
    times = []
    result = None
    for _ in range(repetitions):
        t0 = time.perf_counter()
        result = build()
        times.append(time.perf_counter() - t0)
    return result, statistics.median(times)


def rate_metrics(result: Result, done: Pass, cells: int, step: str) -> None:
    """cells_per_s over the pass's wall time, tokens_per_s over that time less
    the model's, and step_ms.p50/p95 over its steps."""
    wall, busy = sum(done.walls), sum(done.busy)
    result.metrics["cells_per_s"] = cells / wall
    result.metrics["tokens_per_s"] = sum(done.tokens) / (wall - busy)
    result.metrics["step_ms.p50"] = percentile(done.steps, 50) * 1000
    result.metrics["step_ms.p95"] = percentile(done.steps, 95) * 1000
    result.notes.append(f"{cells} cells in {len(done.walls)} units, {sum(done.tokens)} "
                        f"tokens; step_ms: {len(done.steps)} samples, one per {step}")
