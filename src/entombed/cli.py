"""Command-line front end.

Four subcommands: ``maze-render`` (draw or dump generated mazes),
``prng`` (exhaustive generator analyses), ``scan`` (signature search over
files), ``stats`` (maze survey statistics). Machine-readable output is a
JSON envelope {command, parameters, results, version} printed with sorted
keys, so identical invocations produce byte-identical output.

Exit codes: 0 success, 1 runtime or I/O failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections import Counter
from dataclasses import asdict
from typing import List, Optional

from . import __version__, cpu, maze_analysis, mazegen, prng, romscan

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


_DECIMAL = re.compile(r"[0-9]+")
_DECIMAL_OR_HEX = re.compile(r"[0-9]+|0[xX][0-9a-fA-F]+")


def _integer(text: str, syntax: re.Pattern[str]) -> int:
    """Parse exactly ``syntax``: ASCII digits, no sign, underscore or padding."""
    if not syntax.fullmatch(text):
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    return int(text, 16 if text[:2] in ("0x", "0X") else 10)


def _word16(text: str) -> int:
    """Parse a 16-bit value, decimal or 0x-prefixed hex."""
    value = _integer(text, _DECIMAL_OR_HEX)
    if not 0 <= value <= 0xFFFF:
        raise argparse.ArgumentTypeError(f"must be in [0, 65535]: {text!r}")
    return value


def _positive(text: str) -> int:
    value = _integer(text, _DECIMAL)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1: {text!r}")
    return value


def _emit(command: str, parameters: dict, results: dict) -> None:
    envelope = {
        "command": command,
        "parameters": parameters,
        "results": results,
        "version": __version__,
    }
    print(json.dumps(envelope, indent=2, sort_keys=True))


def _make_source(kind: str, seed: int) -> mazegen.RandomBitSource:
    if kind == "zeros":
        return mazegen.ConstantBitSource()
    return mazegen.ModelBitSource(seed)


def _cmd_maze_render(args: argparse.Namespace) -> int:
    source = _make_source(args.source, args.seed)
    rows, traces = mazegen.generate_maze(source, args.rows)
    if args.format == "ascii":
        for row in rows:
            print(maze_analysis.render_row(row))
        return EXIT_OK
    _emit(
        "maze-render",
        {"seed": args.seed, "rows": args.rows, "source": args.source, "format": args.format},
        {
            "rows": rows,
            "traces": [
                {
                    **asdict(t),
                    "postprocess_fired": t.postprocess_fired.value if t.postprocess_fired else None,
                }
                for t in traces
            ],
        },
    )
    return EXIT_OK


def _graph_summary(rho: prng.RhoDecomposition) -> dict:
    image_size = len(set(rho.successor))
    cycle_lengths = rho.cycle_lengths()
    tails = Counter(rho.tail)
    max_tail = max(tails)
    return {
        "cycle_count": len(cycle_lengths),
        "cycle_lengths": cycle_lengths,
        "image_size": image_size,
        "states_without_preimage": prng.WORD_COUNT - image_size,
        "max_tail": max_tail,
        "tail_histogram": [tails[t] for t in range(max_tail + 1)],
    }


def _cmd_prng(args: argparse.Namespace) -> int:
    if args.mode == "survey":
        surveys = prng.canonical_seed_survey()
        max_distinct, argmax_seed = prng.max_distinct_over_canonical_seeds(surveys)
        results = {
            "steps": prng.WORD_COUNT,
            "max_distinct": max_distinct,
            "argmax_seed": argmax_seed,
            "seeds_returning_to_seed": sum(1 for s in surveys if s.returns_to_seed),
            "per_seed_distinct": {f"0x{s.seed >> 8:02x}": s.distinct_generated for s in surveys},
        }
    elif args.mode == "compare":
        report = prng.compare_all_steps()
        results = {
            "states": prng.WORD_COUNT,
            "fraction_equal": report.fraction_equal,
            "mismatch_count": report.mismatch_count,
            "all_mismatch_low_bytes_equal": report.low_bytes_equal_count == report.mismatch_count,
            "high_delta_plus_one": report.high_delta_plus_one,
            "high_delta_minus_one": report.high_delta_minus_one,
        }
    elif args.mode == "graph":
        results = {
            "states": prng.WORD_COUNT,
            "buggy": _graph_summary(prng.rho_decomposition(prng.buggy_step)),
            "correct": _graph_summary(prng.rho_decomposition(prng.correct_step)),
        }
    else:  # oracle-check
        buggy_ok = all(
            cpu.oracle_prng_step(s, False) == prng.buggy_step(s) for s in range(prng.WORD_COUNT)
        )
        fixed_ok = all(
            cpu.oracle_prng_step(s, True) == prng.correct_step(s) for s in range(prng.WORD_COUNT)
        )
        results = {
            "states_checked": prng.WORD_COUNT,
            "historical_carry_matches_buggy": buggy_ok,
            "fixed_carry_matches_correct": fixed_ok,
        }
    _emit("prng", {"mode": args.mode}, results)
    return EXIT_OK


def _load_signature(selector: str) -> romscan.SignatureTemplate:
    if selector == "builtin":
        return romscan.prng_signature()
    if os.path.exists(selector) and not os.path.isfile(selector):
        raise ValueError(f"not a regular file: {selector}")  # a FIFO would block in open()
    with open(selector, "r", encoding="utf-8") as fh:
        return romscan.SignatureTemplate.from_text(fh.read())


def _cmd_scan(args: argparse.Namespace) -> int:
    try:
        sig = _load_signature(args.signature)
    except (OSError, ValueError) as exc:
        print(f"error: cannot load signature: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    if args.file is not None:
        if not os.path.isfile(args.file):
            reason = "not a regular file" if os.path.exists(args.file) else "no such file"
            print(f"error: {reason}: {args.file}", file=sys.stderr)
            return EXIT_RUNTIME
        paths = [args.file]
        target = {"file": args.file}
    else:
        if not os.path.isdir(args.dir):
            reason = "not a directory" if os.path.exists(args.dir) else "no such directory"
            print(f"error: {reason}: {args.dir}", file=sys.stderr)
            return EXIT_RUNTIME
        paths = []
        for base, _dirs, names in os.walk(args.dir):
            paths.extend(os.path.join(base, name) for name in names)
        paths.sort()
        target = {"dir": args.dir}
    report = romscan.scan_corpus(paths, sig)
    _emit(
        "scan",
        {**target, "signature": args.signature, "format": args.format},
        {
            "files_scanned": report.files_scanned,
            "signature_length": len(sig),
            "hits": [
                {
                    "source": h.source, "offset": h.offset, "bindings": dict(h.bindings),
                    "bindings_distinct": h.bindings_distinct(),
                    "bindings_consecutive": h.bindings_consecutive(),
                }
                for h in report.hits
            ],
            "checksums": report.checksums,
            "errors": report.errors,
        },
    )
    return EXIT_OK


def _cmd_stats(args: argparse.Namespace) -> int:
    stats = maze_analysis.maze_survey(args.mazes, args.rows, seed=args.seed)
    _emit(
        "stats",
        {"mazes": args.mazes, "rows": args.rows, "seed": args.seed},
        {**asdict(stats), "unsolvable_fraction": stats.unsolvable_count / stats.mazes_generated},
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entombed",
        description="Generate, verify and hunt the algorithms of Entombed (Atari 2600).",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("maze-render", help="generate a maze and print it")
    p.add_argument("--seed", type=_word16, default=0, help="16-bit model-source seed")
    p.add_argument("--rows", type=_positive, default=60, help="maze rows to generate")
    p.add_argument("--source", choices=["model", "zeros"], default="model")
    p.add_argument("--format", choices=["ascii", "json"], default="ascii")
    p.set_defaults(func=_cmd_maze_render)

    p = sub.add_parser("prng", help="exhaustive generator analyses")
    p.add_argument("--mode", choices=["survey", "compare", "oracle-check", "graph"], required=True)
    p.set_defaults(func=_cmd_prng)

    p = sub.add_parser("scan", help="search files for a byte signature")
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--dir", help="scan every file under a directory")
    target.add_argument("--file", help="scan a single file")
    p.add_argument(
        "--signature",
        default="builtin",
        help='"builtin" for the PRNG signature, or a signature text file '
        "(use ./builtin for a file of that name)",
    )
    p.add_argument("--format", choices=["json"], default="json")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("stats", help="maze survey statistics")
    p.add_argument("--mazes", type=_positive, required=True)
    p.add_argument("--rows", type=_positive, default=60, help="rows per maze")
    p.add_argument("--seed", type=_word16, default=1)
    p.set_defaults(func=_cmd_stats)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader stopped early (say, ``| head``), which is not a failure.
        # Send what is still buffered to devnull so shutdown stays silent.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
