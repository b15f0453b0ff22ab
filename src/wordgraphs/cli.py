"""Command-line interface.

Predicate-style commands answer through their exit status so the tool
composes in shell pipelines: 0 for success or a true predicate, 1 for a
false predicate, 2 for usage or input errors, 3 for a verification
mismatch.  All output is machine-parseable; nothing is written to stderr
on success.  A reader that closes standard output early ends the command
with 141, the status a shell reports for a process killed by SIGPIPE.

Arguments are read off one table, `_COMMANDS`, without argparse, whose
parsers cost every fresh process milliseconds.  Options come in any order,
as `--flag value` or `--flag=value`; the token after an option is its value,
and a repeated option keeps its last.  Options are spelled out in full: a
prefix such as `--len` is refused.  A usage error, like any input error, is
one `error:` line and exit 2.  `--help` prints usage made from the table.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

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
from .factorization import split_points
from .graphs import build_graph, from_json, letter_labeled, to_dot, to_json
from .represent import NotRepresentableError, representational_walk
from .verify import run_verification
from .words import _LOWERCASE, Word, parse_word


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
    text = word.text()
    cuts = split_points(word)
    strong = not cuts
    # The text is rendered once and sliced, never split: up to 26 symbols a
    # letter is one character, so the cuts are its offsets and the bridges'
    # tokens its characters.  Past that, a cut's offset is the summed widths
    # of the ids before it, each with its comma, and the tokens are the ids.
    tokens, starts, comma = text, cuts, 0
    if cuts and word.alphabet_size > 26:
        tokens, starts, comma, at = word._bytes or word.letters, [], 1, 0
        width = [len(str(c)) + 1 for c in range(word.alphabet_size)]
        for a, b in zip((0, *cuts), cuts):
            at += sum(map(width.__getitem__, tokens[a:b]))
            starts.append(at)
    bounds = (0, *starts, len(text) + comma)
    factors = [text[a : b - comma] for a, b in zip(bounds, bounds[1:])]
    # One factor per strong component, and each seam between factors is a
    # bridge of a weakly connected graph: lambda is 1 unless the word is
    # strong, and at least 2 when it is, since a strong graph has no bridge.
    cut = edge_connectivity(build_graph(word), at_least=2) if strong else 1
    print(f"word={text}")
    print(f"strong={'true' if strong else 'false'}")
    # Lambda is 0 exactly when the graph is weakly disconnected, None for one vertex.
    print(f"weak={'true' if cut != 0 else 'false'}")
    print(f"lambda={'n/a' if cut is None else cut}")
    print("bridges=" + ";".join(f"{tokens[b - 1]}->{tokens[b]}" for b in cuts))
    print("factors=" + "|".join(factors))
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


def _cmd_help(name: str | None) -> int:
    """Help made from `_COMMANDS`: the usage of every command, or of `name`."""
    print("usage: wordgraphs COMMAND [OPTIONS]; a WORD of - is read from standard input")
    for command, (_, about, positional, options) in _COMMANDS.items():
        if name in (None, command):
            usage = [command, *([positional.upper()] if positional else [])]
            for flag, (kind, default) in options.items():
                meta = "{" + ",".join(kind) + "}" if type(kind) is tuple else flag[2:].upper()
                spec = flag if kind is bool else f"{flag} {meta}"
                if flag != "--seed-count":  # fault injection, for testing the harness only
                    usage.append(spec if default is _REQUIRED else f"[{spec}]")
            print(f"  {' '.join(usage)}\n      {about}")
    return 0


_REQUIRED = object()
_INT, _FLAG, _CAP = (int, _REQUIRED), (bool, False), (int, DEFAULT_CAP)
# Per command: its handler, one-line help, positional argument and options.
# Each option has a converter (int, str, the tuple of values it allows, or
# bool for a flag, which takes no value) and a default, or _REQUIRED.
_COMMANDS = {
    "build": (_cmd_build, "render a word's graph", "word", {"--format": (("dot", "json"), "dot")}),
    "check": (_cmd_check, "connectivity report (exit 0 iff strong)", "word", {"--verbose": _FLAG}),
    "count": (_cmd_count, "count strong words (canonical ones with --partitions)", None,
              {"--length": _INT, "--alphabet": _INT, "--partitions": _FLAG, "--cap": _CAP}),
    "table": (_cmd_table, "CSV table of counts", None,
              {"--max-length": _INT, "--max-alphabet": _INT, "--out": (str, None), "--cap": _CAP}),
    "verify": (_cmd_verify, "exhaustive identity checks (exit 3 on mismatch)", None,
               {"--max-length": _INT, "--max-alphabet": (int, None), "--cap": _CAP,
                "--verbose": _FLAG, "--seed-count": (str, None)}),
    "represent": (_cmd_represent, "witness word for the digraph in --input (exit 1 if none)", None,
                  {"--input": (str, _REQUIRED)}),
    "histogram": (_cmd_histogram, "words per strong-component count", None,
                  {"--length": _INT, "--alphabet": _INT, "--cap": _CAP}),
}


def _parse(argv: list[str]):
    """The handler `argv` names and its arguments; a usage error raises ValueError."""
    name = argv[0] if argv else None
    if name in ("-h", "--help"):
        return _cmd_help, None
    if name not in _COMMANDS:
        got = f", got {name!r}" if argv else ""
        raise ValueError(f"expected a command ({', '.join(_COMMANDS)}){got}")
    handler, _, positional, options = _COMMANDS[name]
    given, tokens = {}, iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        kind = options.get(flag, (None,))[0]
        if token in ("-h", "--help"):
            return _cmd_help, name
        if token[:1] != "-" or token == "-":
            if not positional or positional in given:
                raise ValueError(f"{name} got an unexpected argument {token!r}")
            flag, value = positional, token
        elif kind is None or eq and kind is bool:
            raise ValueError(f"{name} has no option {token!r}")
        elif kind is bool:
            value = True
        else:
            value = value if eq else next(tokens, None)
            if value is None:
                raise ValueError(f"{flag} expects a value")
            if type(kind) is tuple and value not in kind:
                raise ValueError(f"{flag} expects {' or '.join(kind)}, got {value!r}")
            try:
                value = int(value) if kind is int else value
            except ValueError:
                raise ValueError(f"{flag} expects an integer, got {value!r}") from None
        given[flag] = value
    if positional and positional not in given:
        raise ValueError(f"{name} expects a {positional}, or - to read it from standard input")
    args = {positional: given[positional]} if positional else {}
    for flag, (_, default) in options.items():
        if given.get(flag, default) is _REQUIRED:
            raise ValueError(f"{name} needs {flag}")
        args[flag[2:].replace("-", "_")] = given.get(flag, default)
    return handler, SimpleNamespace(**args)


def main(argv: list[str] | None = None) -> int:
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    try:
        handler, args = _parse(sys.argv[1:] if argv is None else argv)
        # Counts print in full, so the digit limit is lifted after parsing, for
        # the command only.
        if limit is not None:
            sys.set_int_max_str_digits(0)
        if getattr(args, "cap", 0) < 0:
            raise ValueError(f"cap must be at least 0, got {args.cap}")
        status = handler(args)
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
