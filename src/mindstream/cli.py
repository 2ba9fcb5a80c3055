"""Command-line driver.

Subcommands:
    run      stream a transaction file through the engine, write snapshot
             and event log
    query    one-shot static query against a saved snapshot
    trace    replay a stream while tracing one connection's weight
    apriori  static Apriori baseline over the same input format
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Callable, Iterable, List, Optional

# The engine, the stream parser and Apriori are imported by the commands that
# run them, so that a one-shot `query` starts without loading them.
from .model import PARAM_TYPES, EngineParams, Transaction
from .queries import QueryUsageError, run_static_query
from .snapshot import SnapshotError, _quote, load_snapshot, render_snapshot, save_snapshot


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    defaults = EngineParams()
    for name, kind in PARAM_TYPES.items():
        flag = "--lambda" if name == "lam" else "--" + name.replace("_", "-")
        parser.add_argument(flag, dest=name, type=kind, default=getattr(defaults, name))


def _add_input_flags(parser: argparse.ArgumentParser, help: Optional[str] = None) -> None:
    parser.add_argument("--input", default="-", help=help)
    parser.add_argument("--on-parse-error", choices=("stop", "skip"), default="stop")


def _params_from(args: argparse.Namespace) -> EngineParams:
    return EngineParams(**{name: getattr(args, name) for name in PARAM_TYPES})


def _usage_error(message: object) -> int:
    print(f"usage error: {message}", file=sys.stderr)
    return 2


def _consume_input(args: argparse.Namespace, consume: Callable[[Transaction], None]) -> bool:
    """Feed each transaction of `args.input` (a path, or - for stdin) to
    `consume`. On a parse error or an unreadable input, print the error
    and return False.

    Bytes that are not UTF-8 are decoded as lone surrogates, so the parser
    reports (or, under --on-parse-error skip, drops) the line that holds them.
    A line ends at LF alone: a lone CR stays in its record, and `_records` strips a CRLF's CR.
    """
    from .stream import ParseError, read_transactions

    stdin = args.input == "-"
    try:
        if stdin and sys.stdin is None:  # fd 0 was closed when Python started
            raise OSError("standard input is closed")
        with open(
            sys.stdin.fileno() if stdin else args.input,
            "r",
            encoding="utf-8",
            errors="surrogateescape",
            newline="\n",
            closefd=not stdin,
        ) as fh:
            for txn in read_transactions(fh, on_error=args.on_parse_error):
                consume(txn)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return False
    except OSError as exc:
        print(f"error: {args.input}: {exc}", file=sys.stderr)
        return False
    return True


def _cmd_run(args: argparse.Namespace) -> int:
    from .engine import Engine

    try:
        engine = Engine(_params_from(args))
        if args.horizon < 1:  # also without a trace
            raise ValueError("horizon must be >= 1")
        for a, b in args.trace or []:
            engine.register_query(a, b, args.horizon)
    except ValueError as exc:
        return _usage_error(exc)
    # Each traced pair is quoted once, while all are registered.
    names = {pair: f"{_quote(pair[0])} {_quote(pair[1])}" for _, _, pair in engine.queries}
    if not _consume_input(args, engine.ingest):
        return 1

    # The files first, so that a reader leaving stdout early cannot lose them.
    try:
        if args.events:
            path = args.events
            with open(path, "w", encoding="utf-8", newline="\n") as out:
                # In blocks: one string of the whole log would be a file-sized transient.
                for i in range(0, len(engine.event_lines), 1024):
                    out.write("\n".join(engine.event_lines[i : i + 1024]) + "\n")
        if args.snapshot:
            path = args.snapshot
            save_snapshot(engine.state, path)
    except OSError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return 1
    lines = (f"{step} trace {names[pair]} {text}\n" for step, pair, text in engine.emissions)
    print("".join(lines), end="")
    if not args.snapshot:
        print(render_snapshot(engine.state), end="")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    try:
        state = load_snapshot(args.snapshot)
    except (OSError, UnicodeDecodeError, SnapshotError) as exc:
        print(f"error: {args.snapshot}: {exc}", file=sys.stderr)
        return 1
    try:
        result = run_static_query(state, args.query)
    except QueryUsageError as exc:
        return _usage_error(exc)
    if result:
        print(result)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .engine import Engine

    try:
        engine = Engine(_params_from(args))
        engine.register_query(args.a, args.b, args.k, after=args.register_after)
    except ValueError as exc:
        return _usage_error(exc)
    if not _consume_input(args, engine.ingest):
        return 1
    if args.register_after >= engine.step:
        late = f"the stream ends at step {engine.step}, so the trace never ran"
        print(f"error: --register-after {args.register_after}: {late}", file=sys.stderr)
        return 1
    for step, _, text in engine.emissions:
        print(f"{step} {text}")
    return 0


def _itemset(items: Iterable[str]) -> str:
    """`{a,b}`; a label is quoted as in a snapshot, or if it holds `,`, `{` or `}`."""
    return "{" + ",".join(_quote(x, force=any(c in x for c in ",{}")) for x in items) + "}"


def _cmd_apriori(args: argparse.Namespace) -> int:
    from fractions import Fraction  # here, so that a `query` start does not load it

    from .apriori import apriori_levels, gen_rules, negative_border

    frac = args.minsup_frac
    if frac is not None and not 0.0 < frac <= 1.0:  # also rejects nan
        return _usage_error(f"--minsup-frac must be in (0, 1], got {frac}")
    if args.minconf is not None and not 0.0 <= args.minconf <= 1.0:  # also rejects nan
        return _usage_error(f"--minconf must be in [0, 1], got {args.minconf}")
    if (args.minsup is None) == (frac is None):
        return _usage_error("need one of --minsup and --minsup-frac")
    txns: List[Transaction] = []
    if not _consume_input(args, txns.append):
        return 1

    # The ceiling of the fraction as written: 0.28 * 25 is 7.000000000000001 as floats.
    minsup = args.minsup if frac is None else max(1, math.ceil(Fraction(repr(frac)) * len(txns)))
    try:
        levels = apriori_levels(txns, minsup)
    except ValueError as exc:
        return _usage_error(exc)
    frequent = {s: supp for _, fk in levels for s, supp in fk.items()}
    for s, supp in frequent.items():
        print(f"frequent {_itemset(s)} {supp}")
    if args.show_border:
        for k, (cands, fk) in enumerate(levels, start=1):
            for s in negative_border(cands, fk):
                print(f"border k={k} {_itemset(s)}")
    if args.minconf is not None:
        for r in gen_rules(frequent, args.minconf):
            print(
                f"rule {_itemset(r.antecedent)} => {_itemset(r.consequent)} "
                f"supp {r.support} conf {r.confidence:.6f}"
            )
    return 0


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The `mindstream` parser. Only `command`'s subparser gets its arguments,
    or every subparser if `command` is None: the top-level help and errors
    list the subcommands alone, so they read the same either way."""
    parser = argparse.ArgumentParser(
        prog="mindstream",
        description="Incremental mind-map association discovery over "
        "transactional data streams",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="stream transactions through the engine")
    if command in (None, "run"):
        _add_input_flags(p, help="input file or - for stdin")
        _add_param_flags(p)
        p.add_argument("--snapshot", help="write final snapshot here (else stdout)")
        p.add_argument("--events", help="write the event log here")
        p.add_argument(
            "--trace",
            nargs=2,
            action="append",
            metavar=("A", "B"),
            help="register an edge trace before the first step (repeatable)",
        )
        p.add_argument("--horizon", type=int, default=10, help="trace horizon k")
        p.set_defaults(func=_cmd_run)

    p = sub.add_parser("query", help="static query against a snapshot")
    if command in (None, "query"):
        p.add_argument("--snapshot", required=True)
        p.add_argument("query", nargs=argparse.REMAINDER)
        p.set_defaults(func=_cmd_query)

    p = sub.add_parser("trace", help="trace one connection weight over k steps")
    if command in (None, "trace"):
        _add_input_flags(p)
        p.add_argument("a", metavar="A")
        p.add_argument("b", metavar="B")
        p.add_argument("-k", type=int, default=10, help="number of steps to trace")
        p.add_argument(
            "--register-after",
            type=int,
            default=0,
            metavar="STEP",
            help="register the trace once this step has completed",
        )
        _add_param_flags(p)
        p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("apriori", help="static Apriori baseline")
    if command in (None, "apriori"):
        _add_input_flags(p)
        p.add_argument("--minsup", type=int, help="absolute support threshold")
        p.add_argument(
            "--minsup-frac", type=float,
            help="relative support; minsup = ceiling of (fraction as written * transactions)",
        )
        p.add_argument("--minconf", type=float, help="also emit rules at this confidence")
        p.add_argument(
            "--show-border", action="store_true", help="print per-level negative borders"
        )
        p.set_defaults(func=_cmd_apriori)

    return parser


def guard_stdout(call: Callable[[], Optional[int]]) -> int:
    """Run `call` and flush stdout; return its exit code (0 for None), or 1
    with nothing on stderr if stdout's reader has gone (`| head`) or was never
    there (`>&-`: `sys.stdout` is None, and `print` writes nothing)."""
    try:
        code = call()
        if sys.stdout is None:
            return code or 1
        sys.stdout.flush()
    except BrokenPipeError:
        # Keep the flush at exit from failing too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code or 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else "").parse_args(argv)
    return guard_stdout(lambda: args.func(args))


if __name__ == "__main__":
    sys.exit(main())
