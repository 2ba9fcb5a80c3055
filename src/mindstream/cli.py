"""Command-line driver.

Subcommands:
    run      stream a transaction file through the engine, write snapshot
             and event log
    replay   alias of run (deterministic replay of a recorded stream)
    query    one-shot static query against a saved snapshot
    trace    replay a stream while tracing one connection's weight
    apriori  static Apriori baseline over the same input format
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import List, Optional

from .apriori import apriori, apriori_levels, gen_rules, negative_border
from .engine import ContinuousQuery, Engine
from .model import EngineParams
from .queries import QueryUsageError, run_static_query
from .snapshot import SnapshotError, load_snapshot, render_snapshot, save_snapshot
from .stream import ParseError, read_transactions


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    defaults = EngineParams()
    parser.add_argument("--eta", type=float, default=defaults.eta)
    parser.add_argument("--lambda", dest="lam", type=float, default=defaults.lam)
    parser.add_argument("--beta-w", type=float, default=defaults.beta_w)
    parser.add_argument("--beta-a", type=float, default=defaults.beta_a)
    parser.add_argument("--epsilon", type=float, default=defaults.epsilon)
    parser.add_argument("--theta-w", type=float, default=defaults.theta_w)
    parser.add_argument("--theta-a", type=float, default=defaults.theta_a)
    parser.add_argument("--promote-after", type=int, default=defaults.promote_after)


def _params_from(args: argparse.Namespace) -> EngineParams:
    return EngineParams(
        eta=args.eta,
        lam=args.lam,
        beta_w=args.beta_w,
        beta_a=args.beta_a,
        epsilon=args.epsilon,
        theta_w=args.theta_w,
        theta_a=args.theta_a,
        promote_after=args.promote_after,
    )


def _open_input(path: str):
    return sys.stdin if path == "-" else open(path, "r", encoding="utf-8")


def _cmd_run(args: argparse.Namespace) -> int:
    engine = Engine(_params_from(args))
    for spec in args.trace or []:
        a, b = spec
        engine.register_query(
            ContinuousQuery("trace-edge", (a, b), horizon=args.horizon)
        )
    fh = _open_input(args.input)
    try:
        for txn in read_transactions(fh, on_error=args.on_parse_error):
            engine.ingest(txn)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if fh is not sys.stdin:
            fh.close()

    for emission in engine.emissions:
        q = emission.query
        tag = f"trace {q.target[0]} {q.target[1]}" if q.kind == "trace-edge" else q.kind
        print(f"{emission.step} {tag} {emission.text}")
    if args.events:
        with open(args.events, "w", encoding="utf-8", newline="\n") as out:
            out.writelines(line + "\n" for line in engine.event_lines)
    if args.snapshot:
        save_snapshot(engine.state, args.snapshot)
    else:
        sys.stdout.write(render_snapshot(engine.state))
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
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    if result:
        print(result)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    engine = Engine(_params_from(args))
    query = ContinuousQuery("trace-edge", (args.a, args.b), horizon=args.k)
    fh = _open_input(args.input)
    try:
        registered = args.register_after == 0
        if registered:
            engine.register_query(query)
        for txn in read_transactions(fh, on_error=args.on_parse_error):
            engine.ingest(txn)
            if not registered and engine.step == args.register_after:
                engine.register_query(query)
                registered = True
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if fh is not sys.stdin:
            fh.close()
    for emission in engine.emissions:
        print(f"{emission.step} {emission.text}")
    return 0


def _cmd_apriori(args: argparse.Namespace) -> int:
    fh = _open_input(args.input)
    try:
        txns = list(read_transactions(fh, on_error=args.on_parse_error))
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if fh is not sys.stdin:
            fh.close()

    minsup = args.minsup
    if args.minsup_frac is not None:
        minsup = max(1, math.ceil(args.minsup_frac * len(txns)))
    if minsup is None:
        print("error: need --minsup or --minsup-frac", file=sys.stderr)
        return 2

    levels = apriori_levels(txns, minsup)
    frequent = [s for _, fk in levels for s in sorted(fk, key=lambda s: s.items)]
    for s in frequent:
        print(f"frequent {{{','.join(s.items)}}} {s.support}")
    if args.show_border:
        for cands, fk in levels:
            for s in negative_border(cands, fk):
                print(f"border k={cands.level} {{{','.join(s.items)}}}")
    if args.minconf is not None:
        for r in gen_rules(frequent, args.minconf):
            print(
                f"rule {{{','.join(r.antecedent)}}} => {{{','.join(r.consequent)}}} "
                f"supp {r.support} conf {r.confidence:.6f}"
            )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mindstream",
        description="Incremental mind-map association discovery over "
        "transactional data streams",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("run", "replay"):
        p = sub.add_parser(name, help="stream transactions through the engine")
        p.add_argument("--input", default="-", help="input file or - for stdin")
        _add_param_flags(p)
        p.add_argument("--snapshot", help="write final snapshot here (else stdout)")
        p.add_argument("--events", help="write the event log here")
        p.add_argument(
            "--on-parse-error", choices=("stop", "skip"), default="stop"
        )
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
    p.add_argument("--snapshot", required=True)
    p.add_argument("query", nargs=argparse.REMAINDER)
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("trace", help="trace one connection weight over k steps")
    p.add_argument("--input", default="-")
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
    p.add_argument("--on-parse-error", choices=("stop", "skip"), default="stop")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("apriori", help="static Apriori baseline")
    p.add_argument("--input", default="-")
    p.add_argument("--minsup", type=int, help="absolute support threshold")
    p.add_argument(
        "--minsup-frac", type=float, help="relative support, converted by ceiling"
    )
    p.add_argument("--minconf", type=float, help="also emit rules at this confidence")
    p.add_argument(
        "--show-border", action="store_true", help="print per-level negative borders"
    )
    p.add_argument("--on-parse-error", choices=("stop", "skip"), default="stop")
    p.set_defaults(func=_cmd_apriori)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
