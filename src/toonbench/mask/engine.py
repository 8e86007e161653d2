"""Grammar states, token masks, and the constrained-decoding loop."""

from __future__ import annotations

import time
import weakref
from bisect import bisect_left
from collections.abc import Set
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from . import json_machine, toon_machine
from .vocab import TrieNode, Vocabulary


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


class _IdSet(Set):
    """Ascending ids seen as a set: equal to the set of the same ids, with
    ``len`` and iteration straight from the tuple and membership by
    bisection, so a view costs no copy."""

    __slots__ = ("ids",)

    def __init__(self, ids: tuple):
        self.ids = ids

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        return iter(self.ids)

    def __contains__(self, tid) -> bool:
        i = bisect_left(self.ids, tid)
        return i < len(self.ids) and self.ids[i] == tid


@dataclass(frozen=True)
class Mask:
    ids: tuple  # ascending ids of the tokens whose full byte string advances
    accepting: bool  # end-of-sequence currently legal

    @property
    def allowed(self) -> Set:
        """The ids as a read-only set."""
        return _IdSet(self.ids)

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


_MACHINES = {"toon": toon_machine, "json": json_machine}


def step_byte(state: GrammarState, b: int) -> Optional[GrammarState]:
    m2 = _MACHINES[state.mode].step(state.machine, b)
    if m2 is None:
        return None
    return GrammarState(state.mode, m2)


def advance(state: GrammarState, token: int, vocab: Vocabulary) -> GrammarState:
    """Consume one token's bytes; raises RejectError if any byte is illegal."""
    data = vocab.token_bytes(token)
    return advance_bytes(state, data)


def advance_bytes(state: GrammarState, data: bytes) -> GrammarState:
    stepfn = _MACHINES[state.mode].step
    m = state.machine
    for off, b in enumerate(data):
        m2 = stepfn(m, b)
        if m2 is None:
            raise RejectError(off, f"byte {bytes([b])!r} not allowed by the grammar")
        m = m2
    return GrammarState(state.mode, m)


def is_accepting(state: GrammarState) -> bool:
    return _MACHINES[state.mode].accepting(state.machine)


# Masks kept per vocabulary and mode; a full cache drops its oldest mask.
_MASK_CACHE_SIZE = 1024


class _Closure:
    """The tokens made only of one byte class, for one vocabulary: their
    ascending ``ids``, the ``height`` (the depth of the deepest class-only
    trie node) and the ``skeleton``.  The skeleton is a copy of the trie cut
    down to the class-only nodes that lead to a byte outside the class, plus
    those frontier edges, which point into the trie itself; its own nodes
    hold no token ids."""

    __slots__ = ("ids", "height", "skeleton")

    def __init__(self, root: TrieNode, byte_class: frozenset):
        ids: list = []
        self.height = 0
        self.skeleton = TrieNode()
        # Copy the class-only part of the trie with an explicit stack (tokens
        # may be longer than the recursion limit), then cut the copies that
        # lead nowhere, children before their parents.
        copies = []  # (parent copy, byte, copy) in the order made
        stack = [(root, self.skeleton, 0)]
        while stack:
            node, copy, depth = stack.pop()
            self.height = max(self.height, depth)
            for b, child in node.children.items():
                if b in byte_class:
                    ids += child.token_ids
                    below = copy.children[b] = TrieNode()
                    copies.append((copy, b, below))
                    stack.append((child, below, depth + 1))
                else:
                    copy.children[b] = child  # a frontier edge
        for parent, b, copy in reversed(copies):
            if not copy.children:
                del parent.children[b]
        self.ids = tuple(sorted(ids))


class _Cache:
    """What the engine keeps for one vocabulary: masks per mode and grammar
    state, closures per byte class, and the count and time of mask misses."""

    __slots__ = ("masks", "closures", "misses", "miss_ns")

    def __init__(self):
        self.masks: dict = {"toon": {}, "json": {}}
        self.closures: dict = {}
        self.misses = 0
        self.miss_ns = 0


# vocab -> _Cache.  Held weakly, so a cache dies with its vocabulary and a
# later vocabulary can never pick up its masks.
_caches: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _walk(stepfn, machine, root: TrieNode, allowed: list) -> list:
    """Add to ``allowed`` the ids of every token below ``root`` whose bytes
    the machine accepts from ``machine``: one depth-first walk, each child
    byte stepped once."""
    stack = [(machine, root)]
    while stack:
        m, node = stack.pop()
        for b, child in node.children.items():
            m2 = stepfn(m, b)
            if m2 is not None:
                allowed += child.token_ids
                if child.children:
                    stack.append((m2, child))
    return allowed


def _compute(state: GrammarState, vocab: Vocabulary, cache: _Cache) -> tuple:
    """Ascending ids of the tokens accepted from ``state``.  Where the
    machine declares a run whose budget covers the closure of its class, the
    closure's tokens are taken whole and only its skeleton is walked.  No id
    comes twice: the walk finds only tokens with a byte outside the class."""
    machine = _MACHINES[state.mode]
    allowed, root = [], vocab.root
    run = machine.run(state.machine)
    if run is not None:
        byte_class, budget = run
        closure = cache.closures.get(byte_class)
        if closure is None:
            closure = cache.closures[byte_class] = _Closure(vocab.root, byte_class)
        if budget >= closure.height:
            allowed, root = list(closure.ids), closure.skeleton
    return tuple(sorted(_walk(machine.step, state.machine, root, allowed)))


def allowed_mask(state: GrammarState, vocab: Vocabulary) -> Mask:
    """Exact mask: bit i is set iff advance(state, i) would succeed."""
    try:
        return _caches[vocab].masks[state.mode][state.machine]
    except KeyError:
        pass
    cache = _caches.get(vocab)
    if cache is None:
        cache = _caches[vocab] = _Cache()
    t0 = time.perf_counter_ns()
    mask = Mask(_compute(state, vocab, cache), is_accepting(state))
    cache.miss_ns += time.perf_counter_ns() - t0
    cache.misses += 1
    masks = cache.masks[state.mode]
    if len(masks) >= _MASK_CACHE_SIZE:
        del masks[next(iter(masks))]
    masks[state.machine] = mask
    return mask


def cache_stats(vocab: Vocabulary) -> dict:
    """Mask misses, their mean time, cached masks and closures built so far
    for ``vocab``.  Hits are not counted, so a hit stays one lookup: they are
    the ``allowed_mask`` calls less the misses."""
    cache = _caches.get(vocab) or _Cache()
    return {"misses": cache.misses,
            "miss_us_mean": cache.miss_ns / 1000 / cache.misses if cache.misses else 0.0,
            "entries": sum(len(masks) for masks in cache.masks.values()),
            "closures": len(cache.closures)}


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
        # the ids ascend and max() keeps the first maximum, so a tie goes to
        # the lowest id
        best_tid = max(mask.ids, key=scores.__getitem__) if mask.ids else None
        if mask.accepting and (best_tid is None or scores[len(vocab)] >= scores[best_tid]):
            return bytes(out)
        if best_tid is None:
            raise DeadEndError(
                f"no legal continuation at byte offset {len(out)} (non-accepting state)")
        out.extend(vocab.token_bytes(best_tid))
        state = advance(state, best_tid, vocab)
    raise DeadEndError(f"generation exceeded {max_steps} steps")
