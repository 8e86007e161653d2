"""Target-forcing generation through the exact token mask, shared by the
mask_fresh and mask_repeat workloads.

The policy scores the longest vocabulary token that is a prefix of what
remains of the target, and end-of-sequence only once nothing remains.  The
mask is exact, so that token is always legal and the output must equal the
target byte for byte.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from dataclasses import dataclass, field

import toonbench.mask.engine as engine
from toonbench.mask import (DeadEndError, RejectError, Vocabulary, advance,
                            constrained_generate, init_state, is_accepting)
from toonbench.schemas import validate
from toonbench.toon import ToonError, parse_toon
from toonbench.values import JsonParseError, deep_equal, parse_json

from inputs import MODES, build_vocabulary
from layers import patch_decoding, patch_mask
from measure import Pass, Result

SETUP_REPETITIONS = 5


class ForcingPolicy:
    """Scores for ``constrained_generate`` that force one target.  Its own
    time is kept in ``busy``; the gap from one return to the next call is a
    decode step of the program, kept in ``steps``."""

    def __init__(self, vocab: Vocabulary):
        self.ids = {vocab.token_bytes(i): i for i in range(len(vocab))}
        self.max_len = max(len(t) for t in self.ids)
        self.eos = len(vocab)
        self.scores = [0.0] * (len(vocab) + 1)
        self.chosen = None
        self.busy = 0.0
        self.steps = []

    def start(self, target: bytes) -> None:
        # A target that ended early (dead end, rejection, step cut) leaves
        # its last token scored; clear it so it cannot win the next target.
        if self.chosen is not None:
            self.scores[self.chosen] = 0.0
        self.target = target
        self.pos = 0
        self.chosen = None
        self.scores[self.eos] = -1.0

    def __call__(self, step_index, state):
        t0 = time.perf_counter()
        if self.chosen is not None:
            self.steps.append(t0 - self.returned)
            self.scores[self.chosen] = 0.0
            self.pos += self.chosen_len
        remaining = len(self.target) - self.pos
        if remaining <= 0:
            self.chosen = None
            self.scores[self.eos] = 2.0
        else:
            for n in range(min(self.max_len, remaining), 0, -1):
                tid = self.ids.get(self.target[self.pos:self.pos + n])
                if tid is not None:
                    break
            self.chosen, self.chosen_len = tid, n
            self.scores[tid] = 1.0
        self.returned = time.perf_counter()
        self.busy += self.returned - t0
        return self.scores


def _initial(target):
    if target.mode == "json":
        return init_state("json")
    return init_state("toon", target.schema)


def precheck(vocab: Vocabulary, target):
    """Step the target byte by byte with single-byte token ids: (accepted,
    bytes stepped)."""
    state = _initial(target)
    for i, b in enumerate(target.data):
        try:
            state = advance(state, b, vocab)
        except RejectError:
            return False, i + 1
    return is_accepting(state), len(target.data)


def check(target, out: bytes) -> str:
    """What is wrong with a forced output, or "" if nothing is."""
    if out != target.data:
        return f"output {out[:40]!r} differs from target {target.data[:40]!r}"
    text = out.decode("utf-8")
    try:
        parsed = parse_json(text) if target.mode == "json" else parse_toon(text).root
    except (ToonError, JsonParseError) as e:
        return f"output does not parse: {e}"
    ok, diff = deep_equal(target.value, parsed)
    if not ok:
        return f"decoded output differs from its source at {diff}"
    if target.schema is not None and validate(parsed, target.schema):
        return "decoded output fails its schema"
    return ""


class Forcer:
    """Forces targets through ``constrained_generate`` with one policy; with
    a tracer, the mask engine, the policy and the checks record spans."""

    def __init__(self, vocab: Vocabulary, tracer=None):
        self.vocab = vocab
        self.policy = ForcingPolicy(vocab)
        self.score, self.generate = self.policy, constrained_generate
        if tracer is not None:
            patch_mask(tracer, engine)
            this = sys.modules[__name__]
            patch_decoding(tracer, this)
            self.score = tracer.wrap("policy", self.policy)
            self.generate = tracer.wrap("mask.constrained_generate", constrained_generate)

    def force(self, target, result: Result, done: Pass) -> None:
        """Force one target, check it, and add its timings to ``done``."""
        policy = self.policy
        busy, steps = policy.busy, len(policy.steps)
        policy.start(target.data)
        state = _initial(target)
        t0 = time.perf_counter()
        try:
            # A correct run takes one step per token plus the end; a mask that
            # refuses the policy's token would otherwise decode on for 100k steps.
            out = self.generate(self.score, self.vocab, state,
                                max_steps=len(target.data) + 1)
        except (DeadEndError, RejectError) as e:
            out = repr(e).encode()
        wall = time.perf_counter() - t0
        problem = check(target, out)
        result.record(not problem, what=f"{target.mode}: {problem}")
        done.add(target, wall, policy.busy - busy, len(policy.steps) - steps,
                 policy.steps[steps:])


def precheck_all(state, result: Result) -> list:
    """Pre-check every target of ``state``; a rejection is a failed (refused)
    operation.  Returns the accepted targets."""
    accepted = []
    for target in state.targets:
        t0 = time.perf_counter()
        ok, stepped = precheck(state.vocab, target)
        state.automaton[target.mode + ".s"] += time.perf_counter() - t0
        state.automaton[target.mode + ".bytes"] += stepped
        result.record(ok, refused=True)
        if ok:
            accepted.append(target)
    result.notes.append(f"pre-check: {len(state.targets) - len(accepted)} of "
                        f"{len(state.targets)} targets rejected by the byte automaton")
    return accepted


@dataclass
class MaskState:
    vocab: Vocabulary
    targets: list
    seed: int
    build_s: float  # build_toy_vocabulary seconds
    automaton: Counter = field(default_factory=Counter)  # pre-check bytes and seconds
    accepted: list = field(default_factory=list)  # targets the pre-check accepted


def mask_state(targets, seed: int) -> MaskState:
    """Set-up shared by the mask workloads: the vocabulary, timed."""
    t0 = time.perf_counter()
    vocab = build_vocabulary()
    return MaskState(vocab, targets, seed, time.perf_counter() - t0)


def extras(done: Pass, state: MaskState) -> dict:
    out = {"mask.vocab.build_s": state.build_s}
    for mode in MODES:
        if state.automaton[mode + ".s"]:
            out[f"mask.automaton.{mode}.bytes_per_s"] = (
                state.automaton[mode + ".bytes"] / state.automaton[mode + ".s"])
    return out
