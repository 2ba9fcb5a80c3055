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
A number read back is ASCII and holds no `_`, `+` or whitespace.
"""

from __future__ import annotations

import re
from itertools import chain
from typing import Dict, List, Optional

from .memory import Record, Run, Signature
from .model import PARAM_TYPES, Cell, Edge, EngineParams, MindMap, Pair, validate_label

HEADER = "MINDMAP v1"


class SnapshotError(ValueError):
    def __init__(self, message: str, lineno: Optional[int] = None):
        prefix = f"line {lineno}: " if lineno is not None else ""
        super().__init__(prefix + message)
        self.lineno = lineno


class EngineState:
    """A map, its parameters, and its two memories, each a new dict if not
    given: the STM's runs and the LTM's `Record`s, keyed by signature."""

    def __init__(self, mmap: MindMap, params: EngineParams, stm=None, ltm=None) -> None:
        self.mmap, self.params = mmap, params
        self.stm = {} if stm is None else stm
        self.ltm = {} if ltm is None else ltm


def _fmt_num(x: float) -> str:
    return repr(float(x))


def _strict(convert):
    """`convert` (int or float), refusing a token that is not ASCII or holds
    `_`, `+` or whitespace: spellings that it reads but no render writes."""
    def read(token: str):
        if not token.isascii() or "_" in token or "+" in token or token != token.strip():
            raise ValueError(f"number {token!r} must be ASCII, without `_`, `+` or whitespace")
        return convert(token)
    return read


# How many `_` the param names hold. A text that parses has each param line
# once, so one that is ASCII and holds no `"`, no `+` and no further `_` has
# no number token that `_strict` refuses: int() and float() alone read it.
_PARAM_UNDERSCORES = sum(name.count("_") for name in PARAM_TYPES)


def _quote(token: str, force: bool = False) -> str:
    # An empty token, a leading quote or any whitespace (what str.split breaks
    # on; `\s` and str.isspace agree) makes a token need quotes, as does
    # `force`. Letters and digits alone, the common label, are checked first.
    if not force and (token.isalnum() or (token.split() == [token] and token[0] != '"')):
        return token
    return '"' + token.replace("\\", "\\\\").replace('"', '\\"') + '"'


# A quoted token (a backslash escapes only `\\` and `"`; any other backslash
# is literal), a bare token, or a lone `"` that starts an unterminated quote.
# Whitespace is what none of them matches; `\s` and str.isspace agree. The
# patterns here are strings, which `re` compiles on first use and caches, so
# that a start that reads no quoted token or escaped signature compiles none.
_TOKEN = r'"((?:[^"\\]|\\[\\"]|\\(?![\\"]))*)"|([^\s"]\S*)|"'
_ESCAPE = r'\\([\\"])'


def _tokenize(line: str, lineno: int) -> List[str]:
    if '"' not in line:  # no quoted token: str.split breaks on the same spaces
        return line.split()
    tokens: List[str] = []
    for match in re.finditer(_TOKEN, line):
        quoted, bare = match.groups()
        if bare is not None:
            tokens.append(bare)
        elif quoted is not None:
            tokens.append(re.sub(_ESCAPE, r"\1", quoted))
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
_LABEL = r"(?s)(?:^|\|)((?:[^\\|]|\\.|\\\Z)*)"
_UNESCAPE = r"(?s)\\(.)"


def _parse_signature(token: str) -> Signature:
    """The labels of a signature token: two or more valid ones, increasing."""
    labels = token.split("|")  # exact, and far cheaper, when no label holds an escape
    if "\\" in token:
        labels = [re.sub(_UNESCAPE, r"\1", label) for label in re.findall(_LABEL, token)]
    if len(labels) < 2 or any(a >= b for a, b in zip(labels, labels[1:])):
        raise ValueError(f"signature {token!r} is not two or more increasing labels")
    return tuple(map(validate_label, labels))


def ltm_rows(ltm: Dict[Signature, Record]) -> List[tuple]:
    """(appeared_at, signature, disappeared_at or "open", recurrence_count)
    per record, in the order a snapshot writes them."""
    rows = [(a, sig, "open" if g is None else g, n) for sig, (a, g, n) in ltm.items()]
    return sorted(rows, key=lambda row: row[:2])


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
    later = {label: [] for label in quoted}  # label -> the later ends of its edges
    for a, b in edges:
        later[a].append(b)
    tails: Dict[int, tuple] = {}  # stamp -> (last record, its tail); new edges share one
    for a, ends in later.items():  # cells sorted, then each one's later ends: (a, b) order
        for b in sorted(ends):
            edge = edges[a, b]
            last, tail = tails.get(edge[1], (None, ""))
            if last is not edge:
                w = edge[0] if stored_w else mmap.weight_of(edge)
                tail = f"{_fmt_num(w)} {edge[1]}"
                tails[edge[1]] = (edge, tail)
            lines.append(f"edge {quoted[a]} {quoted[b]} {tail}")
    for sig in sorted(state.stm):
        first, run = state.stm[sig]
        lines.append(f"stm {_fmt_signature(sig)} {first} {run}")
    for appeared, sig, gone, recurrence in ltm_rows(state.ltm):
        lines.append(f"ltm {_fmt_signature(sig)} {appeared} {gone} {recurrence}")
    return "\n".join(lines + [""])  # the last "\n" without a second copy of the text


def parse_snapshot(text: str) -> EngineState:
    """Parse a snapshot in one pass that checks each record on its own line."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != HEADER:
        if lines and lines[0].endswith("\r"):
            raise SnapshotError("the file has CRLF line endings; snapshots use LF", 1)
        if lines and lines[0].startswith("\ufeff"):
            bom = "the file starts with a UTF-8 byte-order mark; snapshots have none"
            raise SnapshotError(bom, 1)
        raise SnapshotError("missing header", 1)
    if len(lines) < 2 or not lines[1].startswith("step "):
        raise SnapshotError("missing step line", 2)
    # One choice per text: a plain one is read with str.split and unchecked
    # numbers, any other with the tokenizer and the checking converters. The
    # step token, which no split trims, is always checked.
    plain = '"' not in text and text.isascii() and "+" not in text
    plain = plain and "_" not in text.split("_", _PARAM_UNDERSCORES)[-1]
    to_int, to_float = (int, float) if plain else (_strict(int), _strict(float))
    try:
        step = _strict(int)(lines[1][5:])
    except ValueError:
        raise SnapshotError(f"bad step {lines[1][5:]!r}", 2) from None
    if step < 0:
        raise SnapshotError(f"negative step {step}", 2)

    params: Dict[str, object] = {}
    cells: Dict[str, Cell] = {}
    edges: Dict[Pair, Edge] = {}
    stm: Dict[Signature, Run] = {}
    ltm: Dict[Signature, Record] = {}
    stm_lines: Dict[Signature, int] = {}
    param_lines: Dict[str, int] = {}

    # In a plain text (no `"` anywhere), every line's tokens are its
    # str.split(), as `_tokenize` finds. Such a token holds no whitespace, and
    # is a valid label: str.strip removes only what str.split breaks on, and
    # no token holds the "\n".
    for lineno, line in enumerate(lines[2:], start=3):
        tokens = line.split() if plain else _tokenize(line, lineno)
        try:
            # Edges are most of a snapshot's lines, so they are tested first.
            if len(tokens) == 5 and tokens[0] == "edge":
                _, a, b, weight, stamp = tokens
                if a < b:
                    key = (a, b)
                elif b < a:
                    key = (b, a)
                else:
                    raise ValueError(f"self-pair ({a!r}, {a!r})")
                weight, stamp = to_float(weight), to_int(stamp)
                if not 0.0 <= weight <= 1.0:
                    raise ValueError(f"weight out of range on {key}")
                if not 0 <= stamp <= step:
                    raise ValueError(f"last_reinforced_at outside [0, step] on {key}")
                value = (weight, stamp)
                if edges.setdefault(key, value) is not value:
                    raise ValueError(f"duplicate edge {key!r}")
                continue
            if not tokens:
                raise ValueError("blank line")
            kind, arity = tokens[0], len(tokens) - 1
            if kind == "cell" and arity == 4:
                key = tokens[1] if plain else validate_label(tokens[1])
                activation = to_float(tokens[2])
                created, last = to_int(tokens[3]), to_int(tokens[4])
                if not 0.0 <= activation <= 1.0:
                    raise ValueError(f"activation out of range on {key!r}")
                if not 0 <= created <= last <= step:
                    order = "0 <= created_at <= last_activated_at <= step"
                    raise ValueError(f"a stamp on {key!r} precedes the one before it in {order}")
                table, value = cells, (activation, created, last)
            elif kind == "param" and arity == 2:
                table, key, convert = params, tokens[1], PARAM_TYPES.get(tokens[1])
                if convert is None:
                    raise ValueError(f"unknown param {key!r}")
                try:
                    value = (to_int if convert is int else to_float)(tokens[2])
                except ValueError as exc:
                    raise ValueError(f"param {key}: {exc}") from None
                param_lines[key] = lineno
            elif kind == "stm" and arity == 3:
                table, key = stm, _parse_signature(tokens[1])
                first, run = to_int(tokens[2]), to_int(tokens[3])
                if not (0 <= first <= step and run >= 1):
                    raise ValueError(f"stm stamps out of range on {key!r}")
                value = (first, run)
                stm_lines[key] = lineno
            elif kind == "ltm" and arity == 4:
                table, key = ltm, _parse_signature(tokens[1])
                gone = None if tokens[3] == "open" else to_int(tokens[3])
                appeared, recurrence = to_int(tokens[2]), to_int(tokens[4])
                last = step if gone is None else gone
                if not (0 <= appeared <= last <= step and recurrence >= 1):
                    raise ValueError(f"ltm stamps out of range on {key!r}")
                value = Record(appeared, gone, recurrence)
            else:
                raise ValueError(f"malformed {kind!r} line")
            if key in table:
                raise ValueError(f"duplicate {kind} {key!r}")
            table[key] = value
        except ValueError as exc:
            raise SnapshotError(str(exc), lineno) from None

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
    # The one check that needs every record: each edge endpoint has a cell.
    stray = set(chain.from_iterable(edges)) - cells.keys()
    if stray:
        raise SnapshotError(f"dangling edge endpoint {min(stray)!r}")
    return EngineState(MindMap(cells, edges, step), engine_params, stm, ltm)


def save_snapshot(state: EngineState, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(render_snapshot(state))


def load_snapshot(path: str) -> EngineState:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return parse_snapshot(fh.read())
