"""Compare the language and the cold mask misses of two source trees.

    python tests/compare_trees.py BEFORE [AFTER] [--misses]

Each tree is a checkout holding ``src/toonbench``; AFTER defaults to the one
holding this script.  The fingerprint walks of ``fingerprint.py`` run under
each tree's ``src`` in a subprocess, and for every (mode, document) whose
walks differ the script prints the first state where they do: the bytes that
lead there, the bytes only one tree takes, and ``accepting`` and ``run()``
where they differ.

With ``--misses`` it also forces, over the benchmark vocabulary
(``benchmarks/inputs.build_vocabulary``, V=10,256), from an empty mask cache
each: the 12 gold targets, and the first 20 toon and 20 json targets that
``mask_fresh`` forces in a 20 s run at seeds 11 and 12.  It prints the mask
misses and the local misses and hits of each tree.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARKS = HERE.parent / "benchmarks"
FORCED = 20  # targets per mode that mask_fresh forces in a 20 s run


def _force(base, targets) -> tuple:
    """(misses, local misses, local hits) of forcing ``targets`` in order
    from an empty cache over a copy of vocabulary ``base``."""
    from forcing import ForcingPolicy
    from toonbench.mask import Vocabulary, constrained_generate, init_state
    from toonbench.mask.engine import cache_stats

    vocab = Vocabulary([base.token_bytes(i) for i in range(len(base))])
    policy = ForcingPolicy(vocab)
    for t in targets:
        policy.start(t.data)
        state = init_state("json") if t.mode == "json" else init_state("toon", t.schema)
        out = constrained_generate(policy, vocab, state, max_steps=len(t.data) + 1)
        assert out == t.data, (t.mode, t.data)
    stats = cache_stats(vocab)
    return stats["misses"], stats["local_misses"], stats["local_hits"]


def misses() -> dict:
    sys.path.insert(0, str(BENCHMARKS))
    from forcing import precheck
    from inputs import build_vocabulary, fresh_targets, gold_targets
    from mask_fresh import DEPTH, PER_MODE, SIZE

    vocab = build_vocabulary()
    out = {"gold": _force(vocab, gold_targets())}
    for seed in (11, 12):
        picked = {"toon": [], "json": []}
        for t in fresh_targets(seed, PER_MODE, DEPTH, SIZE):
            if t.mode in picked and len(picked[t.mode]) < FORCED and precheck(vocab, t)[0]:
                picked[t.mode].append(t)
        out[f"mask_fresh seed {seed}"] = _force(vocab, picked["toon"] + picked["json"])
    return out


def _dump(with_misses: bool) -> None:
    from fingerprint import walks
    result = {"walks": list(walks()), "misses": misses() if with_misses else None}
    pickle.dump(result, sys.stdout.buffer)


def _load(tree: Path, with_misses: bool) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tree / "src"), str(HERE)]))
    args = [sys.executable, __file__, "--dump"] + ["--misses"] * with_misses
    done = subprocess.run(args, env=env, stdout=subprocess.PIPE, check=True)
    return pickle.loads(done.stdout)


def _describe(rec: bytes) -> tuple:
    """A fingerprint record as (bytes taken, accepting, run)."""
    taken = bytes(b for b in range(256) if rec[b])
    return taken, bool(rec[256]), rec[257:].decode()


def first_difference(before: list, after: list):
    """The index of the first record where two walks differ, or None."""
    for i, (a, b) in enumerate(zip(before, after)):
        if a != b:
            return i
    return None if len(before) == len(after) else min(len(before), len(after))


def compare(before: dict, after: dict) -> int:
    """Print the first differing state of each document; returns how many
    documents differ."""
    keys, shown = set(), set()
    for (key, data, a), (key2, _, b) in zip(before["walks"], after["walks"]):
        assert key == key2, "the trees walk different document sets"
        keys.add(key)
        i = first_difference(a, b)
        if i is None or key in shown:
            continue
        shown.add(key)
        print(f"{key}: after {data[:i][-60:]!r}")
        if i >= min(len(a), len(b)):
            print(f"  walk ends after {len(a) - 1} bytes before, {len(b) - 1} after")
            continue
        (ta, acc_a, run_a), (tb, acc_b, run_b) = _describe(a[i]), _describe(b[i])
        print(f"  taken before only: {bytes(sorted(set(ta) - set(tb)))!r}")
        print(f"  taken after only:  {bytes(sorted(set(tb) - set(ta)))!r}")
        if acc_a != acc_b:
            print(f"  accepting: {acc_a} -> {acc_b}")
        if run_a != run_b:
            print(f"  run: {run_a} -> {run_b}")
    print(f"{len(shown)} of {len(keys)} documents differ")
    return len(shown)


def main(argv) -> int:
    if argv[:1] == ["--dump"]:
        _dump("--misses" in argv)
        return 0
    with_misses = "--misses" in argv
    trees = [Path(a) for a in argv if a != "--misses"]
    if len(trees) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    before, after = (_load(t, with_misses) for t in trees + [HERE.parent] * (2 - len(trees)))
    differ = compare(before, after)
    if with_misses:
        for name, counts in before["misses"].items():
            print(f"{name}: misses, local misses, local hits "
                  f"{counts} -> {after['misses'][name]}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
