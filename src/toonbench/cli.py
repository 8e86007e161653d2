"""Command-line entry point.

Exit codes: 0 success, 1 domain error (parse / validation / mismatch),
2 usage or configuration error.  Diagnostics go to stderr; data goes to
stdout unless an output path is given.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from importlib import resources
from pathlib import Path

from .harness import ConfigError, load_config, run_benchmark
from .mask import (DeadEndError, advance, allowed_mask, constrained_generate,
                   init_state, load_vocabulary, UnsupportedSchemaError)
from .mask.engine import cache_stats
from .report import SchemaError, emit_report
from .schemas import CASE_NAMES, get_case, validate, write_gold
from .toon import ToonError, encode_toon, parse_toon, toon_to_json
from .values import JsonParseError, deep_equal, format_path, parse_json

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        return Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise _Usage(f"cannot read {path}: {e}")


def _write_out(text: str, out: str) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as e:
            raise _Usage(f"cannot write {out}: {e}")


class _Usage(Exception):
    pass


def _cmd_encode(args) -> int:
    value = parse_json(_read_text(args.input))
    _write_out(encode_toon(value), args.output)
    return EXIT_OK


def _cmd_decode(args) -> int:
    _write_out(toon_to_json(_read_text(args.input)) + "\n", args.output)
    return EXIT_OK


def _cmd_validate(args) -> int:
    case = get_case(args.case)
    text = _read_text(args.input)
    fmt = args.format
    if fmt == "auto":
        fmt = "toon" if args.input.endswith(".toon") else "json"
    value = parse_toon(text).root if fmt == "toon" else parse_json(text)
    errors = validate(value, case.schema)
    if errors:
        for e in errors:
            print(str(e), file=sys.stderr)
        return EXIT_DOMAIN
    ok, diff = deep_equal(case.gold, value)
    if not ok:
        print(f"gold mismatch at {format_path(diff.segments)} "
              f"({diff.kind})", file=sys.stderr)
        return EXIT_DOMAIN
    print(f"{args.input}: valid, matches the {args.case} gold payload",
          file=sys.stderr)
    return EXIT_OK


def _cmd_gold(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in CASE_NAMES:
        write_gold(get_case(name), out_dir)
        print(f"wrote {out_dir / name}.gold.json and .gold.toon",
              file=sys.stderr)
    return EXIT_OK


def _cmd_bench(args) -> int:
    config = load_config(args.config)
    run_benchmark(config, args.output, args.attempt_log)
    print(f"results written to {args.output}", file=sys.stderr)
    return EXIT_OK


def _cmd_report(args) -> int:
    grouping = None
    if args.grouping is not None:
        try:
            grouping = json.loads(_read_text(args.grouping))
        except ValueError as e:
            raise _Usage(f"bad grouping file: {e}")
        if not isinstance(grouping, dict):
            raise _Usage("bad grouping file: the root must be an object")
    written = emit_report(args.csv, args.out_dir, grouping)
    for p in written:
        print(f"wrote {p}", file=sys.stderr)
    return EXIT_OK


# The open containers, the root's included, that a mask-sim document reaches
# before it may end.
MIN_DEPTH = 3


def _depth(state) -> int:
    """The open containers of a grammar state: both automata hold them as
    the stack that begins their state."""
    return len(state.machine[0])


def _cmd_mask_sim(args) -> int:
    if args.vocab is not None:
        vocab = load_vocabulary(args.vocab)
    else:
        with resources.as_file(resources.files("toonbench") / "fixtures"
                               / "toy_vocab.txt") as p:
            vocab = load_vocabulary(p)
    schema = get_case(args.case).schema if args.case else None
    state = init_state(args.mode, schema)
    rng = random.Random(args.seed)
    V = len(vocab)
    bonus = []
    for tid in range(V):
        t = vocab.token_bytes(tid)
        b = -0.2 * len(t)
        if args.mode == "toon":
            if 0x0A in t:
                b += 3.0
            if t == b"0":
                b += 2.0
            if t == b'"':
                b += 1.5
        else:
            if any(x in t for x in (0x09, 0x0A, 0x0D, 0x20)):
                b -= 3.0
            if t == b'"':
                b += 3.0
            if t == b"}":
                b += 2.0
            if t == b"0":
                b += 1.0
        bonus.append(b)

    steps = []
    deepest = 0

    def policy(i, st):
        # Until MIN_DEPTH containers were open at once, end-of-sequence is
        # scored below any token, and a token scores more the deeper it goes.
        nonlocal deepest
        mask = allowed_mask(st, vocab)
        steps.append(f"step {i}: {len(mask.ids)} legal tokens, "
                     f"accepting={mask.accepting}")
        scores = [rng.random() + bonus[t] for t in range(V)]
        depth = _depth(st)
        deepest = max(deepest, depth)
        if deepest < MIN_DEPTH:
            for t in mask.ids:
                scores[t] += 4.0 * (_depth(advance(st, t, vocab)) - depth)
            scores.append(-100.0)
        else:
            scores.append(8.0)
        return scores

    out = constrained_generate(policy, vocab, state, max_steps=args.max_steps)
    _write_out(out.decode("ascii"), args.output)
    for line in steps:
        print(line, file=sys.stderr)
    if args.stats:
        stats = cache_stats(vocab)
        print(f"mask cache: {len(steps) - stats['misses']} hits, "
              f"{stats['misses']} misses ({stats['miss_us_mean']:.0f} us per miss), "
              f"{stats['entries']} entries, {stats['closures']} closures built",
              file=sys.stderr)
        print(f"local states: {stats['local_hits']} hits, {stats['local_misses']} misses, "
              f"{stats['local_entries']} entries", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="toonbench",
        description="TOON structured-generation benchmark toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="JSON file -> TOON")
    enc.add_argument("input", help="JSON input path, or - for stdin")
    enc.add_argument("-o", "--output", default=None)
    enc.set_defaults(fn=_cmd_encode)

    dec = sub.add_parser("decode", help="TOON file -> canonical JSON")
    dec.add_argument("input", help="TOON input path, or - for stdin")
    dec.add_argument("-o", "--output", default=None)
    dec.set_defaults(fn=_cmd_decode)

    val = sub.add_parser("validate",
                         help="check a file against a case schema and gold")
    val.add_argument("input")
    val.add_argument("case", choices=list(CASE_NAMES))
    val.add_argument("--format", choices=("auto", "json", "toon"),
                     default="auto")
    val.set_defaults(fn=_cmd_validate)

    gold = sub.add_parser("gold", help="write all gold files")
    gold.add_argument("--out-dir", default="gold")
    gold.set_defaults(fn=_cmd_gold)

    bench = sub.add_parser("bench", help="run the benchmark from a config file")
    bench.add_argument("--config", required=True)
    bench.add_argument("--output", default="results.csv")
    bench.add_argument("--attempt-log", default=None)
    bench.set_defaults(fn=_cmd_bench)

    rep = sub.add_parser("report", help="aggregate a results CSV")
    rep.add_argument("csv")
    rep.add_argument("--out-dir", default="report")
    rep.add_argument("--grouping", default=None,
                     help="JSON file mapping group name -> case list")
    rep.set_defaults(fn=_cmd_report)

    sim = sub.add_parser("mask-sim",
                         help="generate a document under the grammar mask")
    sim.add_argument("--mode", choices=("toon", "json"), default="toon")
    sim.add_argument("--case", choices=list(CASE_NAMES), default=None,
                     help="constrain to this case's schema (toon mode only)")
    sim.add_argument("--vocab", default=None,
                     help="vocabulary fixture path (default: shipped toy vocab)")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--max-steps", type=int, default=5000)
    sim.add_argument("-o", "--output", default=None)
    sim.add_argument("--stats", action="store_true",
                     help="print mask cache hits, misses, time per miss and size")
    sim.set_defaults(fn=_cmd_mask_sim)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ToonError, JsonParseError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DOMAIN
    except DeadEndError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DOMAIN
    except (ConfigError, SchemaError, UnsupportedSchemaError, _Usage) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
