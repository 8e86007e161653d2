"""mask_repeat: the four gold documents forced through the token mask
again and again, so cache hits dominate."""

from __future__ import annotations

import random
import time

from forcing import (SETUP_REPETITIONS, Forcer, MaskState, extras, mask_state,
                     precheck_all)
from inputs import gold_targets
from measure import Pass, Result, rate_metrics, schedule

MIN_PASSES = 3


def setup(seed: int) -> MaskState:
    return mask_state(gold_targets(), seed)


def prepare(state: MaskState, result: Result) -> None:
    """Force every gold target once, cold, to fill the mask cache."""
    warmer = Forcer(state.vocab)
    t0 = time.perf_counter()
    for target in precheck_all(state, result):
        warmer.force(target, result, Pass())
    result.notes.append(f"warm-up: {time.perf_counter() - t0:.2f} s to force "
                        f"{len(state.targets)} gold targets cold")


def run(state: MaskState, result: Result, workdir, tracer=None,
        seconds: float = 0.0, units=None) -> Pass:
    """Passes over every gold target, each pass in its own seeded order."""
    done = Pass()
    forcer = Forcer(state.vocab, tracer)
    for i in schedule(seconds, units, MIN_PASSES):
        order = random.Random(f"passes:{state.seed}:{i}").sample(
            state.targets, len(state.targets))
        one = Pass()
        for target in order:
            forcer.force(target, result, one)
        done.add(i, sum(one.walls), sum(one.busy), sum(one.tokens), one.steps)
    return done


def summarize(done: Pass, result: Result) -> None:
    rate_metrics(result, done, len(gold_targets()) * len(done.walls), "decode step")
