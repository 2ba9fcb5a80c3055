"""One-shot static queries over a loaded snapshot.

All queries are pure reads; results are plain text, one fact per line,
with labels and signatures written as in a snapshot. A label no cell has
answers "absent"; a string that cannot be a label is a usage error.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from .memory import detect_patterns
from .model import validate_label
from .skeleton import extract_skeleton, strongest_subgraphs
from .snapshot import EngineState, _fmt_signature, _quote, ltm_rows


class QueryUsageError(ValueError):
    pass


def _unit_interval(text: str) -> float:
    x = float(text)
    if not 0.0 <= x <= 1.0:  # nan fails this too
        raise ValueError(text)
    return x


def _positive_int(text: str) -> int:
    if int(text) < 1:
        raise ValueError(text)
    return int(text)


def _check_labels(labels: List[str]) -> None:
    for label in labels:
        try:
            validate_label(label)
        except ValueError as exc:
            raise QueryUsageError(exc) from None


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
        _check_labels(rest)
        if rest[0] == rest[1]:
            raise QueryUsageError("weight needs two distinct labels")
        w = state.mmap.get_weight(rest[0], rest[1])
        return "absent" if w is None else _fmt(w)

    if kind == "activation":
        if len(rest) != 1:
            raise QueryUsageError("usage: activation A")
        _check_labels(rest)
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
        edges = extract_skeleton(state.mmap, theta_w, theta_a).edges
        rules = sorted([(a, b, w) for (a, b), w in edges] + [(b, a, w) for (a, b), w in edges])
        return "\n".join(f"{_quote(a)} => {_quote(b)} {_fmt(w)}" for a, b, w in rules)

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
        return "\n".join(
            f"{_fmt_signature(sig)} {appeared} {gone} {recurrence}"
            for appeared, sig, gone, recurrence in ltm_rows(state.ltm)
            if which == "all" or (gone == "open") == (which == "open")
        )

    if kind == "strongest":
        opts = _take_options(rest, {"--theta-w": _unit_interval, "--top": _positive_int})
        theta_w = opts.get("--theta-w", state.params.theta_w)
        comps = strongest_subgraphs(state.mmap, theta_w, opts.get("--top", 3))
        return "\n".join(
            f"{rank} [{_fmt_signature(sig)}] mean-weight {_fmt(mean_w)}"
            for rank, (sig, mean_w) in enumerate(comps, start=1)
        )

    raise QueryUsageError(f"unknown query {kind!r}")
