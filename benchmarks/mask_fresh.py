"""mask_fresh: new seeded documents forced through the token mask, so
cache misses and trie walks dominate."""

from __future__ import annotations

from toonbench.mask import Vocabulary

from forcing import (SETUP_REPETITIONS, Forcer, MaskState, extras, mask_state,
                     precheck_all)
from inputs import fresh_targets
from measure import Pass, Result, rate_metrics

PER_MODE = 500  # new documents pre-checked per mode
DEPTH = 2  # container nesting of the random documents
SIZE = (50, 90)  # bytes of TOON per random document
# Targets forced per --seconds, by mode.  Schema-mode payloads are only
# pre-checked: they share their case's structure, so most of their steps hit
# the mask cache, and as ~40% of the steps they made step_ms.p50 jump between
# the warm (~0.4 ms) and the cold (~12 ms) steps from seed to seed.
FORCED_PER_SECOND = {"toon": 1.0, "json": 1.0, "toon_schema": 0.0}


def setup(seed: int) -> MaskState:
    return mask_state(fresh_targets(seed, PER_MODE, DEPTH, SIZE), seed)


def retrace(state: MaskState) -> MaskState:
    """Same tokens in a new vocabulary object, so the traced pass starts
    from an empty mask cache as the untraced one did."""
    vocab = Vocabulary([state.vocab.token_bytes(i) for i in range(len(state.vocab))])
    return MaskState(vocab, state.targets, state.seed, state.build_s, state.automaton,
                     state.accepted)


def prepare(state: MaskState, result: Result) -> None:
    state.accepted = precheck_all(state, result)


def run(state: MaskState, result: Result, workdir, tracer=None,
        seconds: float = 0.0, units=None) -> Pass:
    """Force the first accepted targets of each mode, as many as its quota
    (or exactly ``units``)."""
    if units is None:
        units = []
        quota = {m: round(n * seconds) for m, n in FORCED_PER_SECOND.items()}
        for target in state.accepted:
            if quota[target.mode] > 0:
                units.append(target)
                quota[target.mode] -= 1
    done = Pass()
    forcer = Forcer(state.vocab, tracer)
    for target in units:
        forcer.force(target, result, done)
    return done


def summarize(done: Pass, result: Result) -> None:
    rate_metrics(result, done, len(done.walls), "decode step")
