"""Deterministic text snapshots of the engine state.

Format (UTF-8, LF lines, canonical ordering so identical states are
byte-identical):

    MINDMAP v1
    step N
    param <name> <value>          (all engine parameters, fixed order)
    cell <label> <activation> <created_at> <last_activated>
    edge <labelA> <labelB> <weight> <last_reinforced>    (labelA < labelB)
    stm <signature> <first_seen> <consecutive>
    ltm <signature> <appeared> <disappeared|open> <recurrence>

Labels containing whitespace (or starting with a quote) are quoted with
`"` and backslash-escaped. Signatures pipe-join their labels, with `|` and
`\\` escaped inside each label. Floats use shortest round-trip decimals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .memory import LTMRecord, Pattern, Signature, STMEntry
from .model import Connection, EngineParams, ItemCell, MindMap

HEADER = "MINDMAP v1"
PARAM_ORDER = (
    "eta",
    "lam",
    "beta_w",
    "beta_a",
    "epsilon",
    "theta_w",
    "theta_a",
    "promote_after",
)


class SnapshotError(ValueError):
    def __init__(self, message: str, lineno: Optional[int] = None):
        prefix = f"line {lineno}: " if lineno is not None else ""
        super().__init__(prefix + message)
        self.lineno = lineno


@dataclass
class EngineState:
    mmap: MindMap
    params: EngineParams
    stm: Dict[Signature, STMEntry] = field(default_factory=dict)
    ltm: List[LTMRecord] = field(default_factory=list)


def _fmt_num(x: float) -> str:
    return repr(float(x))


def _quote(token: str) -> str:
    if token == "" or token.startswith('"') or any(c.isspace() for c in token):
        return '"' + token.replace("\\", "\\\\").replace('"', '\\"') + '"'
    return token


def _tokenize(line: str, lineno: int) -> List[str]:
    tokens: List[str] = []
    i, n = 0, len(line)
    while i < n:
        if line[i].isspace():
            i += 1
            continue
        if line[i] == '"':
            i += 1
            buf: List[str] = []
            while i < n and line[i] != '"':
                if line[i] == "\\" and i + 1 < n and line[i + 1] in '\\"':
                    buf.append(line[i + 1])
                    i += 2
                else:
                    buf.append(line[i])
                    i += 1
            if i >= n:
                raise SnapshotError("unterminated quoted token", lineno)
            i += 1
            tokens.append("".join(buf))
        else:
            j = i
            while j < n and not line[j].isspace():
                j += 1
            tokens.append(line[i:j])
            i = j
    return tokens


def _fmt_signature(sig: Signature) -> str:
    escaped = [s.replace("\\", "\\\\").replace("|", "\\|") for s in sig]
    return _quote("|".join(escaped))


def _parse_signature(token: str) -> Signature:
    labels: List[str] = []
    buf: List[str] = []
    i = 0
    while i < len(token):
        c = token[i]
        if c == "\\" and i + 1 < len(token):
            buf.append(token[i + 1])
            i += 2
        elif c == "|":
            labels.append("".join(buf))
            buf = []
            i += 1
        else:
            buf.append(c)
            i += 1
    labels.append("".join(buf))
    return tuple(labels)


def render_snapshot(state: EngineState) -> str:
    lines = [HEADER, f"step {state.mmap.step}"]
    for name in PARAM_ORDER:
        value = getattr(state.params, name)
        lines.append(
            f"param {name} {value if name == 'promote_after' else _fmt_num(value)}"
        )
    for label in sorted(state.mmap.cells):
        c = state.mmap.cells[label]
        lines.append(
            f"cell {_quote(label)} {_fmt_num(c.activation)} "
            f"{c.created_at} {c.last_activated_at}"
        )
    for pair in sorted(state.mmap.edges):
        e = state.mmap.edges[pair]
        lines.append(
            f"edge {_quote(pair[0])} {_quote(pair[1])} "
            f"{_fmt_num(e.weight)} {e.last_reinforced_at}"
        )
    for sig in sorted(state.stm):
        entry = state.stm[sig]
        lines.append(
            f"stm {_fmt_signature(sig)} {entry.first_seen_step} "
            f"{entry.consecutive_steps}"
        )
    for record in sorted(state.ltm, key=lambda r: (r.appeared_at, r.signature)):
        gone = "open" if record.disappeared_at is None else str(record.disappeared_at)
        lines.append(
            f"ltm {_fmt_signature(record.signature)} {record.appeared_at} "
            f"{gone} {record.recurrence_count}"
        )
    return "\n".join(lines) + "\n"


def parse_snapshot(text: str) -> EngineState:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != HEADER:
        raise SnapshotError("missing header", 1)
    if len(lines) < 2 or not lines[1].startswith("step "):
        raise SnapshotError("missing step line", 2)
    try:
        step = int(lines[1][5:])
    except ValueError:
        raise SnapshotError(f"bad step {lines[1][5:]!r}", 2) from None

    params_raw: Dict[str, str] = {}
    mmap = MindMap(step=step)
    stm: Dict[Signature, STMEntry] = {}
    ltm: List[LTMRecord] = []

    for lineno, line in enumerate(lines[2:], start=3):
        tokens = _tokenize(line, lineno)
        if not tokens:
            raise SnapshotError("blank line", lineno)
        kind, args = tokens[0], tokens[1:]
        try:
            if kind == "param" and len(args) == 2:
                params_raw[args[0]] = args[1]
            elif kind == "cell" and len(args) == 4:
                label = args[0]
                mmap.cells[label] = ItemCell(
                    label, float(args[1]), int(args[2]), int(args[3])
                )
            elif kind == "edge" and len(args) == 4:
                conn = Connection((args[0], args[1]), float(args[2]), int(args[3]))
                mmap.edges[conn.pair] = conn
            elif kind == "stm" and len(args) == 3:
                sig = _parse_signature(args[0])
                stm[sig] = STMEntry(Pattern(sig, ()), int(args[1]), int(args[2]))
            elif kind == "ltm" and len(args) == 4:
                sig = _parse_signature(args[0])
                gone = None if args[2] == "open" else int(args[2])
                ltm.append(LTMRecord(sig, int(args[1]), gone, int(args[3])))
            else:
                raise SnapshotError(f"malformed {kind!r} line", lineno)
        except SnapshotError:
            raise
        except (ValueError, KeyError) as exc:
            raise SnapshotError(str(exc), lineno) from None

    missing = [p for p in PARAM_ORDER if p not in params_raw]
    if missing:
        raise SnapshotError(f"missing params: {', '.join(missing)}")
    try:
        params = EngineParams(
            **{
                name: (int if name == "promote_after" else float)(params_raw[name])
                for name in PARAM_ORDER
            }
        )
    except ValueError as exc:
        raise SnapshotError(str(exc)) from None
    try:
        mmap.check_invariants()
    except AssertionError as exc:
        raise SnapshotError(str(exc)) from None
    return EngineState(mmap, params, stm, ltm)


def save_snapshot(state: EngineState, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(render_snapshot(state))


def load_snapshot(path: str) -> EngineState:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return parse_snapshot(fh.read())
