"""Test-only reference: the three-pass snapshot load.

This is the `parse_snapshot` that `mindstream.snapshot` replaced with a
one-pass parser, the whole-map `check_invariants` it ended with, and the
character loop `parse_signature` that a regex split replaced. The
parser built every record unchecked, let `MindMap` count degrees, then
walked the finished map once more to validate it. The differential test
feeds both parsers the same mutated snapshots and requires the same
accept/reject result and, on accept, the same re-rendered bytes.
`check_invariants` also serves the property tests as the one whole-map
check of a map the step has built.
"""

from __future__ import annotations

from typing import Dict, List

from mindstream.memory import LTMRecord, Signature, STMEntry
from mindstream.model import (
    PARAM_TYPES,
    Connection,
    EngineParams,
    ItemCell,
    MindMap,
    Pair,
    canonical_pair,
    validate_label,
)
from mindstream.snapshot import (
    HEADER,
    EngineState,
    SnapshotError,
    _tokenize,
)


def parse_signature(token: str) -> Signature:
    """The labels of a signature token, read one character at a time: a
    backslash takes the next character literally, a backslash that ends the
    token is itself literal, and an unescaped `|` ends a label."""
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
    return tuple(labels)


def check_invariants(mmap: MindMap) -> None:
    """Raise ValueError at the first broken invariant of `mmap`."""
    step = mmap.step
    if step < 0:
        raise ValueError(f"negative step {step}")
    for label, cell in mmap.cells.items():
        validate_label(label)
        if not 0.0 <= cell.activation <= 1.0:
            raise ValueError(f"activation out of range on {label!r}")
        if not 0 <= cell.created_at <= cell.last_activated_at <= step:
            raise ValueError(
                f"a stamp on {label!r} precedes the one before it in "
                "0 <= created_at <= last_activated_at <= step"
            )
    for pair, conn in mmap.edges.items():
        if pair != canonical_pair(*pair):
            raise ValueError(f"non-canonical edge key {pair}")
        for endpoint in pair:
            if endpoint not in mmap.cells:
                raise ValueError(f"dangling edge endpoint {endpoint!r}")
        if not 0.0 <= conn.weight <= 1.0:
            raise ValueError(f"weight out of range on {pair}")
        if not 0 <= conn.last_reinforced_at <= step:
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
        step = int(lines[1][5:])
    except ValueError:
        raise SnapshotError(f"bad step {lines[1][5:]!r}", 2) from None

    params_raw: Dict[str, str] = {}
    cells: Dict[str, ItemCell] = {}
    edges: Dict[Pair, Connection] = {}
    stm: Dict[Signature, STMEntry] = {}
    ltm: Dict[Signature, LTMRecord] = {}
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
                value = ItemCell(float(args[1]), int(args[2]), int(args[3]))
            elif kind == "edge" and len(args) == 4:
                table, key = edges, canonical_pair(args[0], args[1])
                value = Connection(float(args[2]), int(args[3]))
            elif kind == "stm" and len(args) == 3:
                table, key = stm, parse_signature(args[0])
                value = STMEntry(int(args[1]), int(args[2]))
                if not (0 <= value.first_seen_step <= step and value.consecutive_steps >= 1):
                    raise ValueError(f"stm stamps out of range on {key!r}")
                stm_lines[key] = lineno
            elif kind == "ltm" and len(args) == 4:
                table, key = ltm, parse_signature(args[0])
                gone = None if args[2] == "open" else int(args[2])
                value = LTMRecord(key, int(args[1]), gone, int(args[3]))
                last = step if gone is None else gone
                if not (0 <= value.appeared_at <= last <= step and value.recurrence_count >= 1):
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
            **{name: kind(params_raw[name]) for name, kind in PARAM_TYPES.items()}
        )
        check_invariants(mmap)
    except ValueError as exc:
        raise SnapshotError(str(exc)) from None
    return EngineState(mmap, params, stm, ltm)
