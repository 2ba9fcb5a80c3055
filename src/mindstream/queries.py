"""One-shot static queries over a loaded snapshot.

All queries are pure reads; results are plain text, one fact per line,
with labels and signatures written as in a snapshot. Unknown labels
answer "absent" rather than erroring.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from .memory import detect_patterns, query_ltm
from .skeleton import derive_rules, extract_skeleton, strongest_subgraphs
from .snapshot import EngineState, _fmt_signature, _quote


class QueryUsageError(ValueError):
    pass


def _unit_interval(text: str) -> float:
    x = float(text)
    if not 0.0 <= x <= 1.0:  # nan fails this too
        raise ValueError(text)
    return x


def _take_options(args: List[str], allowed: Dict[str, Callable]) -> Dict:
    """The `--name value` options in `args`; any other argument is an error."""
    options: Dict = {}
    for i in range(0, len(args), 2):
        arg = args[i]
        if not arg.startswith("--"):
            raise QueryUsageError(f"unexpected argument {arg!r}")
        if arg not in allowed:
            raise QueryUsageError(f"unknown option {arg}")
        if i + 1 == len(args):
            raise QueryUsageError(f"option {arg} needs a value")
        try:
            options[arg] = allowed[arg](args[i + 1])
        except ValueError:
            raise QueryUsageError(f"bad value for {arg}: {args[i + 1]!r}") from None
    return options


_THETAS = {"--theta-w": _unit_interval, "--theta-a": _unit_interval}


def _fmt(w: float) -> str:
    return f"{w:.6f}"


def run_static_query(state: EngineState, args: List[str]) -> str:
    """Evaluate one query (e.g. ["weight", "A", "C"]) against a snapshot."""
    if not args:
        raise QueryUsageError("empty query")
    kind, rest = args[0], args[1:]

    if kind == "weight":
        if len(rest) != 2:
            raise QueryUsageError("usage: weight A B")
        if rest[0] == rest[1]:
            raise QueryUsageError("weight needs two distinct labels")
        w = state.mmap.get_weight(rest[0], rest[1])
        return "absent" if w is None else _fmt(w)

    if kind == "activation":
        if len(rest) != 1:
            raise QueryUsageError("usage: activation A")
        a = state.mmap.get_activation(rest[0])
        return "absent" if a is None else _fmt(a)

    if kind == "skeleton":
        opts = _take_options(rest, _THETAS)
        theta_w = opts.get("--theta-w", state.params.theta_w)
        theta_a = opts.get("--theta-a", state.params.theta_a)
        edges = extract_skeleton(state.mmap, theta_w, theta_a).edges
        quoted = {label: _quote(label) for label in sorted({x for p, _ in edges for x in p})}
        lines = ["nodes " + " ".join(quoted.values())]
        lines += [f"edge {quoted[a]} {quoted[b]} {_fmt(w)}" for (a, b), w in edges]
        return "\n".join(lines)

    if kind == "rules":
        opts = _take_options(rest, _THETAS)
        theta_w = opts.get("--theta-w", state.params.theta_w)
        theta_a = opts.get("--theta-a", state.params.theta_a)
        rules = derive_rules(extract_skeleton(state.mmap, theta_w, theta_a))
        rules.sort(key=lambda r: (r.antecedent, r.consequent))
        return "\n".join(
            f"{_quote(r.antecedent)} => {_quote(r.consequent)} {_fmt(r.weight)}" for r in rules
        )

    if kind == "patterns":
        _take_options(rest, {})
        skel = extract_skeleton(state.mmap, state.params.theta_w, state.params.theta_a)
        return "\n".join(
            "pattern " + _fmt_signature(sig) for sig in sorted(detect_patterns(skel))
        )

    if kind == "ltm":
        which = rest[0] if rest else "all"
        if len(rest) > 1 or which not in ("all", "open", "closed"):
            raise QueryUsageError("usage: ltm [open|closed|all]")
        records = query_ltm(state.ltm, which)
        return "\n".join(
            f"{_fmt_signature(r.signature)} {r.appeared_at} "
            f"{'open' if r.is_open else r.disappeared_at} {r.recurrence_count}"
            for r in records
        )

    if kind == "strongest":
        opts = _take_options(rest, {"--theta-w": _unit_interval, "--top": int})
        theta_w = opts.get("--theta-w", state.params.theta_w)
        try:
            comps = strongest_subgraphs(state.mmap, theta_w, opts.get("--top", 3))
        except ValueError as exc:
            raise QueryUsageError(str(exc)) from None
        return "\n".join(
            f"{rank} [{_fmt_signature(sig)}] mean-weight {_fmt(mean_w)}"
            for rank, (sig, mean_w) in enumerate(comps, start=1)
        )

    raise QueryUsageError(f"unknown query {kind!r}")
