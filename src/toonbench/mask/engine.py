"""Grammar states, token masks, and the constrained-decoding loop."""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from . import json_machine, toon_machine
from .vocab import TrieNode, Vocabulary

EOS = -1  # virtual end-of-sequence token id used by constrained_generate


class RejectError(ValueError):
    def __init__(self, byte_offset: int, reason: str):
        super().__init__(f"rejected at byte offset {byte_offset}: {reason}")
        self.byte_offset = byte_offset
        self.reason = reason


class DeadEndError(RuntimeError):
    pass


class UnsupportedSchemaError(ValueError):
    pass


@dataclass(frozen=True)
class GrammarState:
    mode: str  # "toon" | "json"
    machine: tuple

    def __post_init__(self):
        assert self.mode in ("toon", "json")


@dataclass(frozen=True)
class Mask:
    allowed: frozenset  # token ids whose full byte string advances
    accepting: bool  # end-of-sequence currently legal
    size: int  # vocabulary size V

    def __contains__(self, tid: int) -> bool:
        return tid in self.allowed


def init_state(mode: str, schema=None) -> GrammarState:
    if mode == "toon":
        try:
            machine = toon_machine.initial(schema)
        except ValueError as e:
            raise UnsupportedSchemaError(str(e)) from e
        return GrammarState("toon", machine)
    if mode == "json":
        if schema is not None:
            raise UnsupportedSchemaError(
                "json mode enforces well-formedness only; schema constraints are toon-only")
        return GrammarState("json", json_machine.initial())
    raise ValueError(f"unknown mode {mode!r}")


def _stepper(mode: str):
    return toon_machine.step if mode == "toon" else json_machine.step


def step_byte(state: GrammarState, b: int) -> Optional[GrammarState]:
    m2 = _stepper(state.mode)(state.machine, b)
    if m2 is None:
        return None
    return GrammarState(state.mode, m2)


def advance(state: GrammarState, token: int, vocab: Vocabulary) -> GrammarState:
    """Consume one token's bytes; raises RejectError if any byte is illegal."""
    data = vocab.token_bytes(token)
    return advance_bytes(state, data)


def advance_bytes(state: GrammarState, data: bytes) -> GrammarState:
    stepfn = _stepper(state.mode)
    m = state.machine
    for off, b in enumerate(data):
        m2 = stepfn(m, b)
        if m2 is None:
            raise RejectError(off, f"byte {bytes([b])!r} not allowed by the grammar")
        m = m2
    return GrammarState(state.mode, m)


def is_accepting(state: GrammarState) -> bool:
    if state.mode == "toon":
        return toon_machine.accepting(state.machine)
    return json_machine.accepting(state.machine)


# Masks kept per vocabulary and mode; a full cache drops its oldest mask.
_MASK_CACHE_SIZE = 1024

# vocab -> mode -> {machine state: Mask}.  Held weakly, so a cache dies with
# its vocabulary and a later vocabulary can never pick up its masks.
_caches: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _walk(stepfn, machine, root: TrieNode) -> frozenset:
    """Ids of every token whose bytes the machine accepts from ``machine``:
    one depth-first walk of the trie, each child byte stepped once."""
    allowed: list = []
    stack = [(machine, root)]
    while stack:
        m, node = stack.pop()
        for b, child in node.children.items():
            m2 = stepfn(m, b)
            if m2 is not None:
                allowed += child.token_ids
                if child.children:
                    stack.append((m2, child))
    # Through a set: frozenset() of a set sizes its table once, for all ids,
    # while one grown from a list id by id can end up twice as sparse, and
    # constrained_generate iterates the whole table on every step.
    return frozenset(set(allowed))


def allowed_mask(state: GrammarState, vocab: Vocabulary) -> Mask:
    """Exact mask: bit i is set iff advance(state, i) would succeed."""
    try:
        return _caches[vocab][state.mode][state.machine]
    except KeyError:
        pass
    cache = _caches.setdefault(vocab, {}).setdefault(state.mode, {})
    mask = Mask(_walk(_stepper(state.mode), state.machine, vocab.root),
                is_accepting(state), len(vocab))
    if len(cache) >= _MASK_CACHE_SIZE:
        del cache[next(iter(cache))]
    cache[state.machine] = mask
    return mask


Policy = Callable[[int, GrammarState], Sequence[float]]


def constrained_generate(policy: Policy, vocab: Vocabulary, state: GrammarState,
                         max_steps: int = 100_000) -> bytes:
    """Greedy masked decoding.

    ``policy(step_index, state)`` returns V+1 scores; index V scores the
    virtual end-of-sequence token.  At each step the highest-scoring legal
    choice is taken; generation stops when end-of-sequence is chosen at an
    accepting state.  The result is guaranteed to parse by construction.
    """
    out = bytearray()
    for step_index in range(max_steps):
        mask = allowed_mask(state, vocab)
        scores = policy(step_index, state)
        if len(scores) != len(vocab) + 1:
            raise ValueError("policy must score V tokens plus end-of-sequence")
        best_tid = None
        best_score = None
        for tid in mask.allowed:
            s = scores[tid]
            if best_score is None or s > best_score or (s == best_score and tid < best_tid):
                best_tid, best_score = tid, s
        eos_score = scores[len(vocab)]
        if mask.accepting and (best_score is None or eos_score >= best_score):
            return bytes(out)
        if best_tid is None:
            raise DeadEndError(
                f"no legal continuation at byte offset {len(out)} (non-accepting state)")
        out.extend(vocab.token_bytes(best_tid))
        state = advance(state, best_tid, vocab)
    raise DeadEndError(f"generation exceeded {max_steps} steps")
