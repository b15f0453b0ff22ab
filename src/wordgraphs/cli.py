"""Command-line interface.

Predicate-style commands answer through their exit status so the tool
composes in shell pipelines: 0 for success or a true predicate, 1 for a
false predicate, 2 for usage or input errors, 3 for a verification
mismatch.  All output is machine-parseable; nothing is written to stderr
on success.  A reader that closes standard output early ends the command
with 141, the status a shell reports for a process killed by SIGPIPE.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .connectivity import edge_connectivity
from .counting import (
    DEFAULT_CAP,
    CountTable,
    _check_table_cap,
    csv_lines,
    scc_histogram,
    strong_partition_count,
    strong_word_count,
)
from .factorization import _factor_slices
from .graphs import build_graph, from_json, letter_labeled, to_dot, to_json
from .represent import NotRepresentableError, representational_walk
from .verify import run_verification
from .words import _LOWERCASE, Word, letters_text, parse_word


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first `main` call and reused by later ones.

    Parsing keeps no state in the parser: each call fills a fresh namespace.
    """
    parser = argparse.ArgumentParser(
        prog="wordgraphs",
        description="Build and analyze the digraphs encoded by words.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="render a word's graph")
    p.add_argument("word", help="the word, or - to read it from standard input")
    p.add_argument("--format", choices=["dot", "json"], default="dot")

    p = sub.add_parser("check", help="connectivity report for a word (exit 0 iff strong)")
    p.add_argument("word", help="the word, or - to read it from standard input")
    p.add_argument("--verbose", action="store_true")

    p = sub.add_parser("count", help="count strongly connected words")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--alphabet", type=int, required=True)
    p.add_argument(
        "--partitions",
        action="store_true",
        help="count canonical words (one per partition) instead of labeled words",
    )
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)

    p = sub.add_parser("table", help="CSV table of counts")
    p.add_argument("--max-length", type=int, required=True)
    p.add_argument("--max-alphabet", type=int, required=True)
    p.add_argument("--out", help="write CSV here instead of standard output")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)

    p = sub.add_parser("verify", help="exhaustive identity checks (exit 3 on mismatch)")
    p.add_argument("--max-length", type=int, required=True)
    p.add_argument("--max-alphabet", type=int)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.add_argument("--verbose", action="store_true")
    # Fault-injection hook for testing the harness itself; not for users.
    p.add_argument("--seed-count", metavar="L:N:VALUE", help=argparse.SUPPRESS)

    p = sub.add_parser("represent", help="synthesize a word for a digraph (exit 1 if none)")
    p.add_argument("--input", required=True, help="path to a JSON digraph")

    p = sub.add_parser("histogram", help="words per strong-component count")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--alphabet", type=int, required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)

    return parser


def _read_word(arg: str) -> Word:
    """Parse the word argument; `-` reads it from stdin, which has no argv size cap."""
    if arg == "-":
        arg = sys.stdin.read().removesuffix("\n")
    return parse_word(arg)


def _cmd_build(args) -> int:
    graph = letter_labeled(build_graph(_read_word(args.word)))
    if args.format == "dot":
        sys.stdout.write(to_dot(graph))
    else:
        print(to_json(graph))
    return 0


def _cmd_check(args) -> int:
    word = _read_word(args.word)
    # Cut a byte word's bytes, so each factor renders in C like the whole word.
    factors = _factor_slices(word, word._bytes or word.letters)
    strong = len(factors) == 1
    # One factor per strong component, and each seam between factors is a
    # bridge of a weakly connected graph: lambda is 1 unless the word is strong.
    cut = edge_connectivity(build_graph(word)) if strong else 1
    n = word.alphabet_size
    # Ids follow first occurrence, so each factor's ids lie below the next's.
    bridge_text = ";".join(
        f"{letters_text(f[-1:], n)}->{letters_text(g[:1], n)}"
        for f, g in zip(factors, factors[1:])
    )
    print(f"word={word.text()}")
    print(f"strong={'true' if strong else 'false'}")
    # Lambda is 0 exactly when the graph is weakly disconnected, None for one vertex.
    print(f"weak={'true' if cut != 0 else 'false'}")
    print(f"lambda={'n/a' if cut is None else cut}")
    print(f"bridges={bridge_text}")
    print("factors=" + "|".join(letters_text(f, n) for f in factors))
    print(f"k={len(factors)}")
    print(f"sccs={len(factors)}")
    if args.verbose:
        if strong:
            print("# every symbol can reach every other symbol")
        else:
            print(
                f"# the word splits into {len(factors)} "
                "alphabet-disjoint factors, one per strong component"
            )
    return 0 if strong else 1


def _cmd_count(args) -> int:
    if args.length < 1 or args.alphabet < 1:
        raise ValueError("length and alphabet must be at least 1")
    # Base cases are read off without a table, so they cost nothing.
    if args.length > args.alphabet > 1:
        _check_table_cap(args.length, args.alphabet, args.cap, rows=False)
    if args.partitions:
        print(strong_partition_count(args.length, args.alphabet))
    else:
        print(strong_word_count(args.length, args.alphabet))
    return 0


def _cmd_table(args) -> int:
    if args.max_length >= 1 and args.max_alphabet >= 1:
        _check_table_cap(args.max_length, args.max_alphabet, args.cap, rows=True)
    lines = csv_lines(args.max_length, args.max_alphabet)
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="ascii") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args) -> int:
    table = CountTable()
    if args.seed_count:
        try:
            length, alphabet, value = (int(part) for part in args.seed_count.split(":"))
        except ValueError:
            raise ValueError(
                f"--seed-count expects L:N:VALUE, three integers; got {args.seed_count!r}"
            ) from None
        table.seed_strong_count(length, alphabet, value)
    report = run_verification(
        args.max_length, args.max_alphabet, cap=args.cap, table=table
    )
    for line in report.lines:
        print(line)
    print(f"result={'pass' if report.passed else 'fail'}")
    if args.verbose:
        if report.passed:
            print(f"# all identities hold exhaustively up to length {args.max_length}")
        else:
            print("# first counterexample reported above")
    return 0 if report.passed else 3


def _cmd_represent(args) -> int:
    with open(args.input, encoding="utf-8") as handle:
        graph = from_json(handle.read())
    try:
        walk = representational_walk(graph)
    except NotRepresentableError:
        print("not representable")
        return 1
    # Lowercase letters run together, as `parse_word` reads them; other labels take commas.
    print(("" if set(walk).issubset(_LOWERCASE) else ",").join(walk))
    return 0


def _cmd_histogram(args) -> int:
    for k, count in scc_histogram(args.length, args.alphabet, cap=args.cap).items():
        print(f"{k},{count}")
    return 0


_HANDLERS = {
    "build": _cmd_build,
    "check": _cmd_check,
    "count": _cmd_count,
    "table": _cmd_table,
    "verify": _cmd_verify,
    "represent": _cmd_represent,
    "histogram": _cmd_histogram,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    # Counts print in full, so the digit limit is lifted after parsing, for the
    # command only.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        if getattr(args, "cap", 0) < 0:
            raise ValueError(f"cap must be at least 0, got {args.cap}")
        status = _HANDLERS[args.command](args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader stopped reading, which is no input error.  Point fd 1 at
        # devnull so the flush at interpreter exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # Raised with no message; the objects it unwound are freed, so printing works.
        print("error: out of memory", file=sys.stderr)
        return 2
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
