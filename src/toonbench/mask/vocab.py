"""Token vocabularies and the byte trie used for mask computation.

Fixture file format: one token per line, ``id<TAB>hex-encoded bytes``,
ids dense 0..V-1, no empty tokens.
"""

from __future__ import annotations

from collections import Counter
from operator import itemgetter
from pathlib import Path
from typing import Iterable, List


class TrieNode:
    __slots__ = ("children", "token_ids")

    def __init__(self):
        self.children: dict = {}  # byte -> TrieNode
        self.token_ids: list = []  # tokens whose byte string ends here


class Vocabulary:
    """Immutable token table with a trie index over token byte strings."""

    def __init__(self, tokens: List[bytes]):
        if any(len(t) == 0 for t in tokens):
            raise ValueError("empty token byte string")
        self.tokens = list(tokens)
        self.root = TrieNode()
        for tid, tok in enumerate(self.tokens):
            node = self.root
            for b in tok:
                nxt = node.children.get(b)
                if nxt is None:
                    nxt = TrieNode()
                    node.children[b] = nxt
                node = nxt
            node.token_ids.append(tid)

    def __len__(self) -> int:
        return len(self.tokens)

    def token_bytes(self, tid: int) -> bytes:
        return self.tokens[tid]


def save_vocabulary(vocab: Vocabulary, path) -> None:
    lines = [f"{i}\t{tok.hex()}" for i, tok in enumerate(vocab.tokens)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def load_vocabulary(path) -> Vocabulary:
    tokens: list = []
    for lineno, line in enumerate(Path(path).read_text(encoding="ascii").splitlines(), 1):
        if not line.strip():
            continue
        try:
            ids, hexs = line.split("\t")
            tid = int(ids)
            tok = bytes.fromhex(hexs)
        except ValueError as e:
            raise ValueError(f"{path}:{lineno}: malformed vocabulary line") from e
        if tid != len(tokens):
            raise ValueError(f"{path}:{lineno}: ids must be dense starting at 0")
        tokens.append(tok)
    return Vocabulary(tokens)


def build_toy_vocabulary(corpus: Iterable[str], merges: int = 200,
                         max_len: int = 6) -> Vocabulary:
    """256 single-byte tokens plus the most frequent multi-byte substrings
    of the corpus, for tractable brute-force testing: at most ``merges`` of
    the substrings of 2 to ``max_len`` bytes seen at least twice, by
    descending count, then by the bytes themselves.

    Substrings are counted one length at a time.  A substring seen twice
    starts with a substring one byte shorter seen twice, so length n is
    counted only where a kept substring of length n - 1 starts."""
    docs = [text.encode("utf-8") for text in corpus]
    starts = [range(len(data) - 1) for data in docs]  # every 2-byte substring
    kept: list = []  # (substring, count) pairs, every count at least 2
    for n in range(2, max_len + 1):
        grams = [[data[i:i + n] for i in pos] for data, pos in zip(docs, starts)]
        counts: Counter = Counter()
        for gs in grams:
            counts.update(gs)
        level = [(g, c) for g, c in counts.items() if c >= 2]
        if not level:
            break
        kept += level
        frequent = {g for g, _ in level}
        nxt = []
        for data, pos, gs in zip(docs, starts, grams):
            keep = [i for i, g in zip(pos, gs) if g in frequent]
            if keep and keep[-1] + n == len(data):
                keep.pop()  # no room for a byte more
            nxt.append(keep)
        starts = nxt
    # the substrings are distinct, so the first sort orders by bytes and the
    # stable second one by descending count, keeping bytes order among ties
    kept.sort()
    kept.sort(key=itemgetter(1), reverse=True)
    tokens = [bytes([b]) for b in range(256)]
    tokens += [g for g, _ in kept[:max(merges, 0)]]
    return Vocabulary(tokens)
