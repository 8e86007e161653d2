"""Grammar states, token masks, and the constrained-decoding loop."""

from __future__ import annotations

import time
import weakref
from bisect import bisect_left
from collections.abc import Set
from dataclasses import dataclass
from itertools import filterfalse
from typing import Callable, Optional, Sequence

from . import json_machine, toon_machine
from .keys import MARK, real
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


# Masks and local states kept per vocabulary and mode; a full cache drops its
# oldest entry.
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


class _Local:
    """A local state's mask, split by what it asks of the context: ``full``,
    the ascending ids accepted where no key is taken; ``groups``, the ids of
    the tokens that complete one key, by ``(frame, key)``; and ``rest``,
    ``(questions, ids)`` for the tokens that ask more, which a yes to any
    question refuses (see ``keys.Taken``).  A key completed from the local
    state's key text is MARK followed by the characters the token adds."""

    __slots__ = ("full", "groups", "rest")

    def __init__(self, allowed: list, asking: dict):
        groups, rest = {}, []
        for questions, ids in asking.items():
            ids = tuple(ids)
            (frame, key, added), *more = questions
            if more or added:
                rest.append((questions, ids))
            else:
                if key[:1] == MARK:
                    key = MARK + key.lstrip(MARK)
                groups[(frame, key)] = ids
            allowed += ids
        self.full = tuple(sorted(allowed))
        self.groups = groups
        self.rest = tuple(rest)

    def ids(self, text, sets) -> tuple:
        """Ascending ids accepted where the key text is ``text`` and the open
        frames hold the keys ``sets``: ``full`` less the groups whose key is
        taken, one lookup per taken key."""
        drop = []
        groups = self.groups
        for frame, seen in enumerate(sets):
            for key in seen:
                ids = groups.get((frame, key))
                if ids:
                    drop += ids
                if text is not None and key.startswith(text):
                    ids = groups.get((frame, MARK + key[len(text):]))
                    if ids:
                        drop += ids
        for questions, ids in self.rest:
            for frame, key, added in questions:
                key = real(key, text)
                if key in sets[frame] or key in {real(a, text) for a in added}:
                    drop += ids
                    break
        if not drop:
            return self.full
        return tuple(filterfalse(set(drop).__contains__, self.full))


class _Cache:
    """What the engine keeps for one vocabulary: masks per mode and grammar
    state, ``_Local`` entries per mode and local state, closures per byte
    class, and counts: misses and their time, local hits and misses.
    ``reach`` is one more than the longest token's bytes, and ``asked`` the
    list that local states' ``keys.Taken`` write to."""

    __slots__ = ("masks", "locals", "closures", "misses", "miss_ns", "local_hits",
                 "local_misses", "reach", "asked")

    def __init__(self, vocab: Vocabulary):
        self.masks: dict = {"toon": {}, "json": {}}
        self.locals: dict = {"toon": {}, "json": {}}
        self.closures: dict = {}
        self.misses = 0
        self.miss_ns = 0
        self.local_hits = 0
        self.local_misses = 0
        self.reach = max(map(len, vocab.tokens), default=0) + 1
        self.asked: list = []


# vocab -> _Cache.  Held weakly, so a cache dies with its vocabulary and a
# later vocabulary can never pick up its masks.
_caches: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _walk(stepfn, machine, root: TrieNode, allowed: list, asked: list) -> dict:
    """Add to ``allowed`` the ids of every token below ``root`` whose bytes
    the machine accepts from ``machine`` without a question to ``asked``:
    one depth-first walk, each child byte stepped once.  Returns the ids of
    the tokens accepted where the answers were no, by the questions their
    bytes asked, each asked once, in order."""
    asking: dict = {}
    stack = [(machine, root, ())]
    while stack:
        m, node, questions = stack.pop()
        for b, child in node.children.items():
            m2 = stepfn(m, b)
            q = questions
            if asked:
                q += tuple(x for x in asked if x not in q)
                asked.clear()
            if m2 is not None:
                if q:
                    asking.setdefault(q, []).extend(child.token_ids)
                else:
                    allowed += child.token_ids
                if child.children:
                    stack.append((m2, child, q))
    return asking


def _local(machine, local, vocab: Vocabulary, cache: _Cache) -> _Local:
    """The ``_Local`` of a local state.  Where the machine declares a run
    whose budget covers the closure of its class, the closure's tokens are
    taken whole and only its skeleton is walked.  No id comes twice: the walk
    finds only tokens with a byte outside the class."""
    allowed, root = [], vocab.root
    run = machine.run(local)
    if run is not None:
        byte_class, budget = run
        closure = cache.closures.get(byte_class)
        if closure is None:
            closure = cache.closures[byte_class] = _Closure(vocab.root, byte_class)
        if budget >= closure.height:
            allowed, root = list(closure.ids), closure.skeleton
    return _Local(allowed, _walk(machine.step, local, root, allowed, cache.asked))


def _compute(state: GrammarState, vocab: Vocabulary, cache: _Cache) -> tuple:
    """Ascending ids of the tokens accepted from ``state``, from the
    ``_Local`` of its local state, which is made on a miss."""
    machine = _MACHINES[state.mode]
    local, (text, sets) = machine.split(state.machine, cache.reach, cache.asked)
    entries = cache.locals[state.mode]
    entry = entries.get(local)
    if entry is None:
        cache.local_misses += 1
        entry = _local(machine, local, vocab, cache)
        if len(entries) >= _MASK_CACHE_SIZE:
            del entries[next(iter(entries))]
        entries[local] = entry
    else:
        cache.local_hits += 1
    return entry.ids(text, sets)


def allowed_mask(state: GrammarState, vocab: Vocabulary) -> Mask:
    """Exact mask: bit i is set iff advance(state, i) would succeed."""
    try:
        return _caches[vocab].masks[state.mode][state.machine]
    except KeyError:
        pass
    cache = _caches.get(vocab)
    if cache is None:
        cache = _caches[vocab] = _Cache(vocab)
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
    """Mask misses, their mean time, cached masks, the local-state hits,
    misses and entries behind the misses, and closures built so far for
    ``vocab``.  Hits are not counted, so a hit stays one lookup: they are the
    ``allowed_mask`` calls less the misses."""
    cache = _caches.get(vocab) or _Cache(vocab)
    return {"misses": cache.misses,
            "miss_us_mean": cache.miss_ns / 1000 / cache.misses if cache.misses else 0.0,
            "entries": sum(len(masks) for masks in cache.masks.values()),
            "local_hits": cache.local_hits,
            "local_misses": cache.local_misses,
            "local_entries": sum(len(entries) for entries in cache.locals.values()),
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
