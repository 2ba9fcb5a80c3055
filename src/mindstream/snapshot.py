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

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .memory import LTMRecord, Signature, STMEntry
from .model import PARAM_TYPES, Connection, EngineParams, ItemCell, MindMap, Pair, validate_label

HEADER = "MINDMAP v1"


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
    ltm: Dict[Signature, LTMRecord] = field(default_factory=dict)


def _fmt_num(x: float) -> str:
    return repr(float(x))


def _quote(token: str) -> str:
    # An empty token, a leading quote or any whitespace (what str.split breaks
    # on; `\s` and str.isspace agree) makes a token need quotes. Letters and
    # digits alone, the common label, are checked first.
    if token.isalnum() or (token.split() == [token] and token[0] != '"'):
        return token
    return '"' + token.replace("\\", "\\\\").replace('"', '\\"') + '"'


# A quoted token (a backslash escapes only `\\` and `"`; any other backslash
# is literal), a bare token, or a lone `"` that starts an unterminated quote.
# Whitespace is what none of them matches; `\s` and str.isspace agree.
_TOKEN = re.compile(r'"((?:[^"\\]|\\[\\"]|\\(?![\\"]))*)"|([^\s"]\S*)|"')
_ESCAPE = re.compile(r'\\([\\"])')


def _tokenize(line: str, lineno: int) -> List[str]:
    if '"' not in line:  # no quoted token: str.split breaks on the same spaces
        return line.split()
    tokens: List[str] = []
    for match in _TOKEN.finditer(line):
        quoted, bare = match.groups()
        if bare is not None:
            tokens.append(bare)
        elif quoted is not None:
            tokens.append(_ESCAPE.sub(r"\1", quoted))
        else:
            raise SnapshotError("unterminated quoted token", lineno)
    return tokens


def _fmt_signature(sig: Signature) -> str:
    joined = "|".join(sig)
    if "\\" in joined or joined.count("|") >= len(sig):  # a label holds `\` or `|`
        joined = "|".join(s.replace("\\", "\\\\").replace("|", "\\|") for s in sig)
    return _quote(joined)


# A signature's label: up to an unescaped `|` or the end. A backslash
# escapes the character after it; one that ends the token is literal.
_LABEL = re.compile(r"(?:^|\|)((?:[^\\|]|\\.|\\\Z)*)", re.S)
_UNESCAPE = re.compile(r"\\(.)", re.S)


def _parse_signature(token: str) -> Signature:
    """The labels of a signature token: two or more, strictly increasing."""
    labels = token.split("|")  # exact, and far cheaper, when no label holds an escape
    if "\\" in token:
        labels = [_UNESCAPE.sub(r"\1", label) for label in _LABEL.findall(token)]
    if len(labels) < 2 or any(a >= b for a, b in zip(labels, labels[1:])):
        raise ValueError(f"signature {token!r} is not two or more increasing labels")
    return tuple(labels)


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
        c = cells[label]
        a = c.activation if stored_a else mmap.activation_of(c)
        quoted[label] = q = _quote(label)
        lines.append(f"cell {q} {_fmt_num(a)} {c.created_at} {c.last_activated_at}")
    for pair in sorted(edges):
        e = edges[pair]
        w = e.weight if stored_w else mmap.weight_of(e)
        lines.append(
            f"edge {quoted[pair[0]]} {quoted[pair[1]]} {_fmt_num(w)} {e.last_reinforced_at}"
        )
    for sig in sorted(state.stm):
        entry = state.stm[sig]
        lines.append(
            f"stm {_fmt_signature(sig)} {entry.first_seen_step} "
            f"{entry.consecutive_steps}"
        )
    for record in sorted(state.ltm.values(), key=lambda r: (r.appeared_at, r.signature)):
        gone = "open" if record.disappeared_at is None else str(record.disappeared_at)
        lines.append(
            f"ltm {_fmt_signature(record.signature)} {record.appeared_at} "
            f"{gone} {record.recurrence_count}"
        )
    return "\n".join(lines) + "\n"


def parse_snapshot(text: str) -> EngineState:
    """Parse a snapshot in one pass that checks each record on its own line."""
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
    if step < 0:
        raise SnapshotError(f"negative step {step}", 2)

    params: Dict[str, object] = {}
    cells: Dict[str, ItemCell] = {}
    edges: Dict[Pair, Connection] = {}
    stm: Dict[Signature, STMEntry] = {}
    ltm: Dict[Signature, LTMRecord] = {}
    stm_lines: Dict[Signature, int] = {}
    param_lines: Dict[str, int] = {}

    for lineno, line in enumerate(lines[2:], start=3):
        tokens = _tokenize(line, lineno)
        if not tokens:
            raise SnapshotError("blank line", lineno)
        kind, arity = tokens[0], len(tokens) - 1
        try:
            # Edges are most of a snapshot's lines, so they are tested first.
            if kind == "edge" and arity == 4:
                _, a, b, weight, stamp = tokens
                if a < b:
                    key = (a, b)
                elif b < a:
                    key = (b, a)
                else:
                    raise ValueError(f"self-pair ({a!r}, {a!r})")
                weight, stamp = float(weight), int(stamp)
                if not 0.0 <= weight <= 1.0:
                    raise ValueError(f"weight out of range on {key}")
                if not 0 <= stamp <= step:
                    raise ValueError(f"last_reinforced_at outside [0, step] on {key}")
                table, value = edges, Connection(weight, stamp)
            elif kind == "cell" and arity == 4:
                key = validate_label(tokens[1])
                activation, created, last = float(tokens[2]), int(tokens[3]), int(tokens[4])
                if not 0.0 <= activation <= 1.0:
                    raise ValueError(f"activation out of range on {key!r}")
                if not 0 <= created <= last <= step:
                    order = "0 <= created_at <= last_activated_at <= step"
                    raise ValueError(f"a stamp on {key!r} precedes the one before it in {order}")
                table, value = cells, ItemCell(activation, created, last)
            elif kind == "param" and arity == 2:
                table, key, convert = params, tokens[1], PARAM_TYPES.get(tokens[1])
                if convert is None:
                    raise ValueError(f"unknown param {key!r}")
                try:
                    value = convert(tokens[2])
                except ValueError as exc:
                    raise ValueError(f"param {key}: {exc}") from None
                param_lines[key] = lineno
            elif kind == "stm" and arity == 3:
                table, key = stm, _parse_signature(tokens[1])
                value = STMEntry(int(tokens[2]), int(tokens[3]))
                if not (0 <= value.first_seen_step <= step and value.consecutive_steps >= 1):
                    raise ValueError(f"stm stamps out of range on {key!r}")
                stm_lines[key] = lineno
            elif kind == "ltm" and arity == 4:
                table, key = ltm, _parse_signature(tokens[1])
                gone = None if tokens[3] == "open" else int(tokens[3])
                value = LTMRecord(key, int(tokens[2]), gone, int(tokens[4]))
                last = step if gone is None else gone
                if not (0 <= value.appeared_at <= last <= step and value.recurrence_count >= 1):
                    raise ValueError(f"ltm stamps out of range on {key!r}")
            else:
                raise ValueError(f"malformed {kind!r} line")
        except ValueError as exc:
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

    missing = [p for p in PARAM_TYPES if p not in params]
    if missing:
        raise SnapshotError(f"missing params: {', '.join(missing)}")
    try:
        engine_params = EngineParams(**params)
    except ValueError as exc:
        # Each range error begins with the name of its field; so does the
        # cross-field `epsilon must be < theta_w`, which names epsilon's line.
        raise SnapshotError(str(exc), param_lines.get(str(exc).split()[0])) from None
    mmap = MindMap(cells, edges, step)
    # The one check that needs the finished map: every edge endpoint has a cell.
    stray = mmap.degree.keys() - cells.keys()
    if stray:
        raise SnapshotError(f"dangling edge endpoint {min(stray)!r}")
    return EngineState(mmap, engine_params, stm, ltm)


def save_snapshot(state: EngineState, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(render_snapshot(state))


def load_snapshot(path: str) -> EngineState:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return parse_snapshot(fh.read())
