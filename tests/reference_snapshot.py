"""Test-only reference: the three-pass snapshot load, and the render that
formats every edge on its own.

This is the `parse_snapshot` that `mindstream.snapshot` replaced with a
one-pass parser, the whole-map `check_invariants` it ended with, and the
character loop `parse_signature` that a regex split replaced. The
parser built every record unchecked, then walked the finished map once
more to validate it. The differential test
feeds both parsers the same mutated snapshots and requires the same
accept/reject result and, on accept, the same re-rendered bytes.
`check_invariants` also serves the property tests as the one whole-map
check of a map the step has built.

`render_snapshot` is the render whose edge loop reads and formats the
weight and stamp of each edge, where `mindstream.snapshot` formats each
distinct record once for all the edges that share it; the two must write
the same bytes.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from mindstream.memory import Record, Run, Signature
from mindstream.model import (
    PARAM_TYPES,
    EngineParams,
    MindMap,
    Pair,
    canonical_pair,
    validate_label,
)
from mindstream.snapshot import (
    HEADER,
    EngineState,
    SnapshotError,
    _fmt_num,
    _fmt_signature,
    _quote,
    _tokenize,
    ltm_rows,
)


def number(kind: type, token: str):
    """`kind(token)` (int or float) for a token that is ASCII and holds no
    `_`, `+` or whitespace, spellings that int() and float() read and no
    render writes. Every token is checked, where `mindstream.snapshot`
    checks them only in a text that could hold one."""
    if not token.isascii() or "_" in token or "+" in token or token != token.strip():
        raise ValueError(f"number {token!r} must be ASCII, without `_`, `+` or whitespace")
    return kind(token)


def parse_signature(token: str) -> Signature:
    """The labels of a signature token, read one character at a time: a
    backslash takes the next character literally, a backslash that ends the
    token is itself literal, and an unescaped `|` ends a label. Each label
    must pass `validate_label`."""
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
    if len(labels) < 2 or any(a >= b for a, b in zip(labels, labels[1:])):
        raise ValueError(f"signature {token!r} is not two or more increasing labels")
    return tuple(map(validate_label, labels))


def check_invariants(mmap: MindMap) -> None:
    """Raise ValueError at the first broken invariant of `mmap`."""
    step = mmap.step
    if step < 0:
        raise ValueError(f"negative step {step}")
    for label, (activation, created_at, last_activated_at) in mmap.cells.items():
        validate_label(label)
        if not 0.0 <= activation <= 1.0:
            raise ValueError(f"activation out of range on {label!r}")
        if not 0 <= created_at <= last_activated_at <= step:
            raise ValueError(
                f"a stamp on {label!r} precedes the one before it in "
                "0 <= created_at <= last_activated_at <= step"
            )
    for pair, (weight, last_reinforced_at) in mmap.edges.items():
        if pair != canonical_pair(*pair):
            raise ValueError(f"non-canonical edge key {pair}")
        for endpoint in pair:
            if endpoint not in mmap.cells:
                raise ValueError(f"dangling edge endpoint {endpoint!r}")
        if not 0.0 <= weight <= 1.0:
            raise ValueError(f"weight out of range on {pair}")
        if not 0 <= last_reinforced_at <= step:
            raise ValueError(f"last_reinforced_at outside [0, step] on {pair}")


def parse_snapshot(text: str) -> EngineState:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != HEADER:
        raise SnapshotError("missing header", 1)
    if len(lines) < 2 or not lines[1].startswith("step "):
        raise SnapshotError("missing step line", 2)
    try:
        step = number(int, lines[1][5:])
    except ValueError:
        raise SnapshotError(f"bad step {lines[1][5:]!r}", 2) from None

    params_raw: Dict[str, str] = {}
    cells: Dict[str, Tuple[float, int, int]] = {}
    edges: Dict[Pair, Tuple[float, int]] = {}
    stm: Dict[Signature, Run] = {}
    ltm: Dict[Signature, Record] = {}
    stm_lines: Dict[Signature, int] = {}

    for lineno, line in enumerate(lines[2:], start=3):
        tokens = _tokenize(line, lineno)
        if not tokens:
            raise SnapshotError("blank line", lineno)
        kind, args = tokens[0], tokens[1:]
        try:
            if kind == "param" and len(args) == 2:
                table, key, value = params_raw, args[0], args[1]
            elif kind == "cell" and len(args) == 4:
                table, key = cells, args[0]
                value = (number(float, args[1]), number(int, args[2]), number(int, args[3]))
            elif kind == "edge" and len(args) == 4:
                table, key = edges, canonical_pair(args[0], args[1])
                value = (number(float, args[2]), number(int, args[3]))
            elif kind == "stm" and len(args) == 3:
                table, key = stm, parse_signature(args[0])
                value = (number(int, args[1]), number(int, args[2]))
                if not (0 <= value[0] <= step and value[1] >= 1):
                    raise ValueError(f"stm stamps out of range on {key!r}")
                stm_lines[key] = lineno
            elif kind == "ltm" and len(args) == 4:
                table, key = ltm, parse_signature(args[0])
                gone = None if args[2] == "open" else number(int, args[2])
                value = (number(int, args[1]), gone, number(int, args[3]))
                last = step if gone is None else gone
                if not (0 <= value[0] <= last <= step and value[2] >= 1):
                    raise ValueError(f"ltm stamps out of range on {key!r}")
            else:
                raise SnapshotError(f"malformed {kind!r} line", lineno)
        except SnapshotError:
            raise
        except (ValueError, KeyError) as exc:
            raise SnapshotError(str(exc), lineno) from None
        if key in table:
            raise SnapshotError(f"duplicate {kind} {key!r}", lineno)
        table[key] = value

    # An STM signature is a component of the current skeleton, so each of
    # its labels has a cell; an LTM record outlives its cells.
    for sig, lineno in stm_lines.items():
        for label in sig:
            if label not in cells:
                raise SnapshotError(f"stm signature {sig!r}: no cell {label!r}", lineno)

    missing = [p for p in PARAM_TYPES if p not in params_raw]
    if missing:
        raise SnapshotError(f"missing params: {', '.join(missing)}")
    # The records above were built unchecked: validate the whole state once.
    mmap = MindMap(cells, edges, step)
    try:
        params = EngineParams(
            **{name: number(kind, params_raw[name]) for name, kind in PARAM_TYPES.items()}
        )
        check_invariants(mmap)
    except ValueError as exc:
        raise SnapshotError(str(exc)) from None
    return EngineState(mmap, params, stm, ltm)


def render_snapshot(state: EngineState) -> str:
    lines = [HEADER, f"step {state.mmap.step}"]
    for name, kind in PARAM_TYPES.items():
        value = getattr(state.params, name)
        lines.append(f"param {name} {value if kind is int else _fmt_num(value)}")
    # Values are written as of `step`; a map that does not decay stores them so.
    mmap = state.mmap
    cells, edges, stored_a, stored_w = mmap.cells, mmap.edges, mmap.keep_a == 1, mmap.keep_w == 1
    quoted: Dict[str, str] = {}  # each label quoted once, for its edges too
    for label in sorted(cells):
        a, born, stamp = cell = cells[label]
        if not stored_a:
            a = mmap.activation_of(cell)
        quoted[label] = q = _quote(label)
        lines.append(f"cell {q} {_fmt_num(a)} {born} {stamp}")
    for pair in sorted(edges):
        w, stamp = edge = edges[pair]
        if not stored_w:
            w = mmap.weight_of(edge)
        lines.append(f"edge {quoted[pair[0]]} {quoted[pair[1]]} {_fmt_num(w)} {stamp}")
    for sig in sorted(state.stm):
        first, run = state.stm[sig]
        lines.append(f"stm {_fmt_signature(sig)} {first} {run}")
    for appeared, sig, gone, recurrence in ltm_rows(state.ltm):
        lines.append(f"ltm {_fmt_signature(sig)} {appeared} {gone} {recurrence}")
    return "\n".join(lines) + "\n"
