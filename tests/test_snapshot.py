import random
import re
from itertools import combinations
from typing import List

import pytest
from hypothesis import example, given, settings, strategies as st

from mindstream.dynamics import ingest_transaction
from mindstream.model import PARAM_TYPES, EngineParams, MindMap, Transaction
from mindstream.snapshot import (
    EngineState,
    SnapshotError,
    _parse_signature,
    _quote,
    _tokenize,
    parse_snapshot,
    render_snapshot,
    load_snapshot,
    save_snapshot,
)

from helpers import (
    random_engine_state,
    random_transactions,
    replay,
    txn,
    worked_example_transactions,
)
from reference_snapshot import parse_signature as reference_parse_signature
from reference_snapshot import parse_snapshot as reference_parse_snapshot
from reference_snapshot import render_snapshot as reference_render_snapshot


def state_of(mmap, params=EngineParams(), stm=None, ltm=None):
    return EngineState(mmap, params, stm or {}, ltm or {})


def test_empty_map_snapshot():
    text = render_snapshot(state_of(MindMap()))
    lines = text.splitlines()
    assert lines[0] == "MINDMAP v1"
    assert lines[1] == "step 0"
    assert all(l.startswith("param ") for l in lines[2:])


def test_round_trip_identity_on_worked_example():
    engine = replay(worked_example_transactions())
    text = render_snapshot(engine.state)
    assert render_snapshot(parse_snapshot(text)) == text


def test_round_trip_preserves_exact_floats():
    engine = replay(worked_example_transactions())
    loaded = parse_snapshot(render_snapshot(engine.state))
    # The snapshot holds each value as read at its step, to the last bit.
    for pair, edge in engine.mmap.edges.items():
        assert loaded.mmap.edges[pair][0] == engine.mmap.weight_of(edge)
    for label, cell in engine.mmap.cells.items():
        assert loaded.mmap.cells[label][0] == engine.mmap.activation_of(cell)


def test_parsed_values_are_those_of_the_snapshot_step():
    # A parsed map's origin is its step: its values read as written, and a
    # step on it decays an untouched record from there, not from its stamp.
    engine = replay(worked_example_transactions())
    loaded = parse_snapshot(render_snapshot(engine.state)).mmap
    assert loaded.origin == loaded.step == 4
    edge = loaded.edges[("A", "D")]  # stamped at step 1
    assert loaded.weight_of(edge) == edge[0]
    ingest_transaction(loaded, Transaction(None, {}), engine.params)
    assert loaded.weight_of(edge) == edge[0] * (1 - engine.params.beta_w)
    assert loaded.get_weight("A", "D") == pytest.approx(engine.mmap.get_weight("A", "D") * 0.98)


def test_a_stepped_parsed_map_forgets_as_its_engine_does():
    # The first step on a parsed map files its records in the wheel as of
    # the snapshot's step, so each is forgotten in the step that the map the
    # snapshot was written from forgets it.
    rng = random.Random(5)
    alphabet = [f"i{k}" for k in range(12)]
    params = EngineParams(beta_w=0.1, beta_a=0.1, epsilon=0.05, theta_w=0.5)
    original = replay(random_transactions(rng, alphabet, 60), params).mmap
    parsed = parse_snapshot(render_snapshot(state_of(original, params))).mmap
    forgotten = 0
    for t in random_transactions(rng, alphabet[:4], 100):
        _, events = ingest_transaction(original, t, params)
        _, parsed_events = ingest_transaction(parsed, t, params)
        assert parsed_events == events
        forgotten += len(events.edges_forgotten) + len(events.cells_forgotten)
        for pair, edge in parsed.edges.items():
            assert parsed.weight_of(edge) == pytest.approx(original.get_weight(*pair), rel=1e-12)
    assert forgotten > 20 and parsed.edges.keys() == original.edges.keys()


def test_awkward_labels_round_trip():
    weird = ['with space', 'tab\there', '"quoted"', "back\\slash", "pi|pe"]
    a, b = sorted(weird)[:2]
    mmap = MindMap({label: (0.5, 0, 0) for label in weird}, {(a, b): (0.25, 0)})
    sig = tuple(sorted(weird[:3]))
    stm = {sig: (0, 1)}
    ltm = {sig: (0, None, 1)}
    text = render_snapshot(state_of(mmap, stm=stm, ltm=ltm))
    loaded = parse_snapshot(text)
    assert set(loaded.mmap.cells) == set(weird)
    assert loaded.mmap.edges[(a, b)][0] == 0.25
    assert loaded.stm == {sig: (0, 1)}
    assert loaded.ltm == {sig: (0, None, 1)}
    assert render_snapshot(loaded) == text


def test_load_errors():
    with pytest.raises(SnapshotError, match="missing header"):
        parse_snapshot("")
    with pytest.raises(SnapshotError, match="missing header"):
        parse_snapshot("MINDMAP v2\nstep 0\n")
    with pytest.raises(SnapshotError, match="missing step"):
        parse_snapshot("MINDMAP v1\n")
    good = render_snapshot(state_of(MindMap()))
    # A header that is there but not read names the reason on line 1.
    crlf = "the file has CRLF line endings; snapshots use LF"
    with pytest.raises(SnapshotError, match=f"^line 1: {crlf}$"):
        parse_snapshot(good.replace("\n", "\r\n"))
    bom = "the file starts with a UTF-8 byte-order mark; snapshots have none"
    with pytest.raises(SnapshotError, match=f"^line 1: {bom}$"):
        parse_snapshot("\ufeff" + good)
    with pytest.raises(SnapshotError, match="line 11"):
        parse_snapshot(good + "cell onlytwo 0.5\n")
    with pytest.raises(SnapshotError, match="missing params"):
        parse_snapshot("MINDMAP v1\nstep 0\n")


def test_ltm_open_marker():
    ltm = {("A", "B"): (3, None, 1), ("C", "D"): (1, 5, 2)}
    text = render_snapshot(state_of(MindMap(step=5), ltm=ltm))
    assert "ltm C|D 1 5 2" in text
    assert "ltm A|B 3 open 1" in text
    assert parse_snapshot(text).ltm == ltm


def test_file_round_trip(tmp_path):
    engine = replay(worked_example_transactions())
    path = tmp_path / "map.snap"
    save_snapshot(engine.state, str(path))
    first = path.read_bytes()
    save_snapshot(load_snapshot(str(path)), str(path))
    assert path.read_bytes() == first


def test_random_states_round_trip():
    rng = random.Random(123)
    for _ in range(100):
        state = random_engine_state(rng)
        text = render_snapshot(state)
        assert render_snapshot(parse_snapshot(text)) == text


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_float_serialization_is_lossless(x):
    mmap = MindMap()
    mmap.cells["A"] = (x, 0, 0)
    loaded = parse_snapshot(render_snapshot(state_of(mmap)))
    assert loaded.mmap.cells["A"][0] == x


def reference_tokenize(line: str, lineno: int) -> List[str]:
    """The char-by-char tokenizer that the compiled regex replaced."""
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


def tokens_or_error(tokenize, line):
    try:
        return tokenize(line, 7)
    except SnapshotError as exc:
        return str(exc)


# Lines without a quote take str.split; the odd spaces check that it splits
# where the reference does.
@settings(max_examples=2000, deadline=None)
@given(
    st.one_of(
        st.text(alphabet='a"\\| \t\x1c\x85\u3000', max_size=16),
        st.text(alphabet="a\\| \t\x1c\x85\xa0\u2028\u3000", max_size=16),
    )
)
def test_tokenizer_matches_reference(line):
    assert tokens_or_error(_tokenize, line) == tokens_or_error(reference_tokenize, line)


def reference_quote(token: str) -> str:
    """The per-character `_quote` that one compiled regex replaced."""
    if token == "" or token.startswith('"') or any(c.isspace() for c in token):
        return '"' + token.replace("\\", "\\\\").replace('"', '\\"') + '"'
    return token


@settings(max_examples=2000, deadline=None)
@given(st.text(alphabet='a"\\ \t\n\x1c\x85\xa0\u3000', max_size=8))
def test_quote_matches_reference(token):
    assert _quote(token) == reference_quote(token)


def labels_or_error(parse, token):
    try:
        return parse(token)
    except ValueError as exc:
        return str(exc)


# Escaped and bare `|`, escaped backslashes, a backslash that ends the token,
# empty labels at either end, and labels out of order.
@settings(max_examples=3000, deadline=None)
@given(st.text(alphabet="\\| ab", max_size=12))
@example("a\\")
@example("a|b\\")
@example("a\\|b|c\\\\|d")
@example("|a")
@example("a|")
def test_parse_signature_matches_reference(token):
    got = labels_or_error(_parse_signature, token)
    assert got == labels_or_error(reference_parse_signature, token)


@pytest.mark.parametrize("kind", ["param", "cell", "edge", "stm", "ltm"])
def test_duplicate_lines_are_rejected(kind):
    cells = {"A": (0.5, 1, 3), "B": (0.5, 1, 3)}
    mmap = MindMap(cells, {("A", "B"): (0.75, 3)}, step=3)
    sig = ("A", "B")
    state = state_of(mmap, stm={sig: (2, 2)}, ltm={sig: (3, None, 1)})
    lines = render_snapshot(state).splitlines()
    repeated = next(line for line in lines if line.startswith(kind + " "))
    with pytest.raises(SnapshotError, match=f"line {len(lines) + 1}: duplicate {kind}"):
        parse_snapshot("\n".join(lines + [repeated]) + "\n")


def snapshot_with(*records):
    """A valid two-cell snapshot at step 2, plus `records` as extra lines."""
    head = render_snapshot(state_of(MindMap(step=2))).splitlines()
    return head + ["cell a 0.5 1 2", "cell b 0.5 1 2", *records]


@pytest.mark.parametrize(
    "record, error",
    [
        ('cell "" 0.5 1 2', "label"),
        ("cell c 1.5 1 2", "activation"),
        ("cell c nan 1 2", "activation"),
        ("cell c 0.5 3 2", "precedes"),
        ("edge a a 0.5 2", "self-pair"),
        ("edge a b 1.5 2", "weight"),
        ("edge a b nan 2", "weight"),
        # Every stamp lies in [0, step]; a `step` record replaces the step line.
        ("step -5", "negative step"),
        ("cell c 0.5 -1 2", "precedes"),
        ("cell c 0.5 1 3", "precedes"),
        ("edge a b 0.7 -1", "last_reinforced_at"),
        ("edge a b 0.7 9", "last_reinforced_at"),
        ("stm a|b 3 1", "stm stamps"),
        ("stm a|b 1 0", "stm stamps"),
        ("ltm a|b 3 open 1", "ltm stamps"),
        ("ltm a|b 2 1 1", "ltm stamps"),
        ("ltm a|b 1 3 1", "ltm stamps"),
        ("ltm a|b 1 open 0", "ltm stamps"),
        # A signature is two or more labels in increasing order, and an STM
        # signature (a current component) names only labels with cells.
        ("stm a 1 1", "not two or more increasing labels"),
        ("stm b|a 1 1", "not two or more increasing labels"),
        ("stm a|a 1 1", "not two or more increasing labels"),
        ("ltm x 1 open 1", "not two or more increasing labels"),
        ("ltm y|x 1 open 1", "not two or more increasing labels"),
        # Each label of a signature is a valid label: neither empty nor blank.
        ("ltm |a|b 1 open 1", "non-empty single-line"),
        ('ltm " |c" 1 1 1', "non-empty single-line"),
        ("stm x|y 1 1", "no cell 'x'"),
        ("stm a|b|z 1 1", "no cell 'z'"),
        ("edge a z 0.5 2", "dangling edge endpoint 'z'"),
        # A param line names a known parameter and holds a value of its type,
        # in that parameter's range; a known param replaces its own line. A
        # range message must match whole: its first word names the line.
        ("param bogus 3", "unknown param 'bogus'"),
        ("param promote_after 2.0", "param promote_after: invalid literal"),
        ("param eta 1.5", r"eta must be in \(0, 1\]"),
        ("param lam 0", r"lam must be in \(0, 1\]"),
        ("param beta_w 1", r"beta_w must be in \[0, 1\)"),
        ("param beta_a -0.5", r"beta_a must be in \[0, 1\)"),
        ("param epsilon 1", r"epsilon must be in \[0, 1\)"),
        ("param theta_w 1.5", r"theta_w must be in \[0, 1\]"),
        ("param theta_a nan", r"theta_a must be in \[0, 1\]"),
        ("param promote_after 0", "promote_after must be >= 1"),
        # The cross-field check runs once all params are read; it names
        # epsilon's line.
        ("param epsilon 0.75", "epsilon must be < theta_w"),
        # A number is ASCII and holds no `_` or `+`, though int() and float()
        # read such spellings.
        ("step 0_2", "bad step '0_2'"),
        ("step +2", r"bad step '\+2'"),
        ("step \u0662", "bad step"),
        ("edge a b 0.5 +2", "number '\\+2' must be ASCII"),
        ("edge a b 0.5 \u0662", "must be ASCII"),
        ("edge a b 0.5_0 2", "number '0.5_0' must be ASCII"),
        ("edge a b \u0660.\u0665 2", "must be ASCII"),
        ("cell c 0.5 1 +2", "number '\\+2' must be ASCII"),
        ("cell c 0.7_5 1 2", "number '0.7_5' must be ASCII"),
        ("param promote_after +2", "param promote_after: number '\\+2' must be ASCII"),
        ("param eta 0.5_0", "param eta: number '0.5_0' must be ASCII"),
        ("stm a|b +2 1", "number '\\+2' must be ASCII"),
        ("stm a|b 2 \u0661", "must be ASCII"),
        # Nor does it hold whitespace, which int() and float() strip: not in
        # the step token, which no split trims, nor in a quoted number.
        ("step 2 ", "bad step '2 '"),
        ("step  2", "bad step ' 2'"),
        ("step 2\t", r"bad step '2\\t'"),
        ("step \x0b2", r"bad step '\\x0b2'"),
        ('edge a b " 0.5" 2', "number ' 0.5' must be ASCII"),
        ('edge a b 0.5 "2\t"', r"number '2\\t' must be ASCII"),
        ('cell c "\x0b0.5" 1 2', r"number '\\x0b0.5' must be ASCII"),
    ],
)
def test_bad_records_are_rejected(record, error):
    lines = snapshot_with(record)
    lineno = len(lines)
    kind, name = record.split()[:2]
    if kind == "step":
        lines[1], lineno = lines.pop(), 2
    elif kind == "param" and name in PARAM_TYPES:
        lineno = next(i for i, line in enumerate(lines, 1) if line.startswith(f"param {name} "))
        lines[lineno - 1] = lines.pop()
    # A text with no `"` is split line by line, one with a quoted label is
    # tokenized: both paths give the same error on the same line.
    errors = []
    for extra in [], ['cell "q r" 0.5 1 2']:
        with pytest.raises(SnapshotError, match=error) as caught:
            parse_snapshot("\n".join(lines + extra) + "\n")
        errors.append((str(caught.value), caught.value.lineno))
    assert errors[0] == errors[1]
    # Each record is checked on its own line. Only the endpoint check needs
    # the finished map, so its error names no line.
    assert caught.value.lineno == (None if record.startswith("edge a z") else lineno)
    if error.startswith(f"{name} must be "):
        assert re.fullmatch(f"line {lineno}: {error}", str(caught.value))


def test_a_number_error_is_exact_in_a_text_with_every_param_line():
    # The parse checks number tokens only in a text that could hold a bad
    # one: a `"`, not ASCII, a `+`, or a `_` past the five of the param
    # names. Without `param beta_w`, the `_` of `0_2` in an edge is one of
    # five, so float() reads it, and the missing param is the error. The
    # step token is always checked, so its error is exact either way.
    lines = snapshot_with()
    lines[1] = "step 0_2"
    with pytest.raises(SnapshotError, match=r"^line 2: bad step '0_2'$"):
        parse_snapshot("\n".join(lines) + "\n")
    lines.remove(next(line for line in lines if line.startswith("param beta_w ")))
    with pytest.raises(SnapshotError, match=r"^line 2: bad step '0_2'$"):
        parse_snapshot("\n".join(lines) + "\n")
    lines[1] = "step 2"
    lines.append("edge a b 0.5_0 2")
    with pytest.raises(SnapshotError, match="^missing params: beta_w$"):
        parse_snapshot("\n".join(lines) + "\n")


def test_a_loaded_map_counts_no_degree_and_a_stray_endpoint_is_named():
    # Neither the constructor nor the parser counts edges per cell: only
    # forgetting reads that count. The endpoint check is a set difference,
    # which names the smallest stray label of all.
    cells = {"a": (0.5, 1, 2), "b": (0.5, 1, 2)}
    assert MindMap(cells, {("a", "b"): (0.5, 2)}, 2).degree is None
    state = parse_snapshot("\n".join(snapshot_with("edge a b 0.5 2")) + "\n")
    assert state.mmap.degree is None and state.mmap.edges == {("a", "b"): (0.5, 2)}
    strays = ["edge b z 0.5 2", "edge x y 0.5 2", "edge a m 0.5 1", "edge b y 0.5 2"]
    with pytest.raises(SnapshotError, match="^dangling edge endpoint 'm'$") as caught:
        parse_snapshot("\n".join(snapshot_with(*strays)) + "\n")
    assert caught.value.lineno is None


def test_edge_key_is_canonicalized():
    state = parse_snapshot("\n".join(snapshot_with("edge b a 0.25 2")) + "\n")
    assert list(state.mmap.edges) == [("a", "b")]
    assert state.mmap.edges[("a", "b")][0] == 0.25


# The differential fuzz starts from a small valid snapshot (a quoted label,
# an open and a closed LTM record) and mutates it: it swaps tokens, inserts
# lines, repeats, deletes and shuffles them.
FUZZ_BASE = render_snapshot(
    state_of(
        MindMap(
            {
                "a": (0.5, 1, 3),
                "b": (0.75, 0, 4),
                "c": (0.25, 2, 2),
                "x y": (1.0, 4, 4),
            },
            {
                ("a", "b"): (0.5, 3),
                ("a", "c"): (0.125, 2),
                ("b", "x y"): (1.0, 4),
            },
            step=4,
        ),
        stm={("a", "b"): (3, 2)},
        ltm={("a", "b"): (4, None, 1), ("b", "c"): (1, 3, 2)},
    )
).splitlines()
# The same state without "x y": a mutated text holds a `"` only where a swap
# or an insert puts one, so most take the one-split path.
FUZZ_PLAIN = [line for line in FUZZ_BASE if '"x y"' not in line]
# Tokens with characters that str.split breaks on, beside the spaces of a line.
FUZZ_TOKENS = [
    "a", "b", "z", '"x y"', '""', '" "', '"a', "a\\", "nan", "-0.0", "0", "1", "1.5",
    "-1", "2", "3", "4", "5", "0.5", "inf", "2.0", "open", "a|a", "b|a", "a|b", "a|b|c",
    "a|z", "a|x y", "a\\|b", "bogus", "promote_after", "eta", "edge", "cell", "param",
    "stm", "ltm", "step", "a\x0bb", "\x1c", "b\x85", "\u3000c", "x\ty", "1_0", "+1", "\u0661",
    "0.5_0",
]
FUZZ_LINES = [
    "edge a a 0.5 2", "edge a z 0.5 1", "edge b a 0.25 1", "edge c b 0.75 4",
    "cell z 0.5 0 1", 'cell "" 0.5 0 1', "param bogus 3", "param promote_after 2",
    "stm a|c 1 1", "stm a|b|c 4 1", "ltm a|z 0 open 1", "", " ", "step 4", "MINDMAP v1",
]


@st.composite
def mutated_snapshots(draw, base):
    lines = list(base)
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["swap", "swap", "insert", "repeat", "delete", "shuffle"]))
        i = draw(st.integers(0, len(lines) - 1)) if lines else 0
        if op == "insert" or not lines:
            lines.insert(i, draw(st.sampled_from(FUZZ_LINES)))
        elif op == "swap":
            tokens = lines[i].split(" ")
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(FUZZ_TOKENS))
            lines[i] = " ".join(tokens)
        elif op == "repeat":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        elif op == "delete":
            del lines[i]
        else:
            j = draw(st.integers(i, len(lines)))
            lines[i:j] = draw(st.permutations(lines[i:j]))
    return "\n".join(lines) + "\n"


def rendered_or_error(parse, text):
    try:
        return render_snapshot(parse(text))
    except SnapshotError as exc:
        return exc


def is_unknown_param(line):
    tokens = _tokenize(line, 0)
    return len(tokens) == 3 and tokens[0] == "param" and tokens[1] not in PARAM_TYPES


def check_parser_matches_reference(text):
    """The one-pass parser accepts what the three-pass reference accepts,
    and renders it to the same bytes. The one difference: it rejects an
    unknown param name, which the reference loaded and dropped."""
    new = rendered_or_error(parse_snapshot, text)
    old = rendered_or_error(reference_parse_snapshot, text)
    if isinstance(new, SnapshotError) and isinstance(old, str):
        assert "unknown param" in str(new)
        lines = text.split("\n")
        assert is_unknown_param(lines[new.lineno - 1])
        known = [line for line in lines if not is_unknown_param(line)]
        assert rendered_or_error(parse_snapshot, "\n".join(known)) == old
    else:
        assert type(new) is type(old)
        if isinstance(new, str):
            assert new == old


@settings(max_examples=1000, deadline=None)
@given(mutated_snapshots(FUZZ_BASE))
@example("\n".join(FUZZ_BASE + ["param promote_after 2"]) + "\n")
@example("\n".join(FUZZ_BASE + ["edge a z 0.5 1"]) + "\n")
@example("\n".join(FUZZ_BASE + ["edge b c 1.5 1"]) + "\n")
@example("\n".join(FUZZ_BASE + ["param bogus 3"]) + "\n")
@example("\n".join(FUZZ_BASE[:1] + ["step 4\t"] + FUZZ_BASE[2:]) + "\n")
@example("\n".join(FUZZ_BASE + ['edge b c " 0.5" 1']) + "\n")
@example("\n".join(FUZZ_BASE + ['cell d "\x0b0.5" 1 2']) + "\n")
def test_parser_matches_reference(text):
    check_parser_matches_reference(text)


# The only `"` of a text may come on its last line: the whole text is then
# tokenized, and a quoted token holds a space that str.split would break at.
@settings(max_examples=1000, deadline=None)
@given(mutated_snapshots(FUZZ_PLAIN))
@example("\n".join(FUZZ_PLAIN[:-1] + ['ltm "a|x y" 4 open 1']) + "\n")
@example("\n".join(FUZZ_PLAIN[:1] + ["step  4"] + FUZZ_PLAIN[2:]) + "\n")
def test_quote_free_parser_matches_reference(text):
    assert '"' not in "".join(FUZZ_PLAIN)
    check_parser_matches_reference(text)


# Labels that need quotes or escapes in a snapshot, beside plain ones, and
# labels whose pairs sort otherwise than their edge lines' text: ("a", "c")
# comes before ("a b", "c") and ("a\x01", "b"), though `edge "a b" c` and
# `edge a\x01 b` sort before `edge a c`. "Z" sorts before "a", "é" last.
RENDER_LABELS = ["a", "b", "c", "a b", "x|y", '"q', "ab", "a\x01", "Z", "é"]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.lists(st.sampled_from(RENDER_LABELS), max_size=6), max_size=30),
    st.booleans(),
)
def test_render_matches_reference_on_engine_and_parsed_states(stream, decay):
    """An engine's new edges share one record, which the render formats once
    for all of them; a parsed snapshot holds a record per edge. Both render
    to the bytes of the reference, which formats every edge on its own."""
    params = EngineParams() if decay else EngineParams(beta_w=0.0, beta_a=0.0, epsilon=0.0)
    state = replay(map(txn, stream), params).state
    text = render_snapshot(state)
    assert text == reference_render_snapshot(state)
    parsed = parse_snapshot(text)
    assert render_snapshot(parsed) == reference_render_snapshot(parsed) == text


def test_render_writes_edges_in_label_pair_order():
    labels = ["a", "ab", "a\x01", "Z", "é", "a b"]
    cells = {label: (1.0, 0, 0) for label in labels}
    # Inserted last pair first, so that the map's own order is not the render's.
    pairs = reversed(list(combinations(sorted(labels), 2)))
    mmap = MindMap(cells, {pair: (0.5, 0) for pair in pairs})
    state = state_of(mmap)
    text = render_snapshot(state)
    edge_lines = [line for line in text.splitlines() if line.startswith("edge ")]
    pairs = [tuple(_tokenize(line, 0)[1:3]) for line in edge_lines]
    assert pairs == sorted(mmap.edges) and edge_lines != sorted(edge_lines)
    assert text == reference_render_snapshot(state) == render_snapshot(parse_snapshot(text))


@st.composite
def built_maps(draw):
    """A map built through the constructor, with int and float values (-0.0
    too), quoted labels, and edges that share one record or hold their own,
    equal or not; decay is read from origin 0 when `keep_w` is below 1."""
    step = draw(st.integers(0, 5))
    values, stamps = st.sampled_from([0, 1, 0.0, -0.0, 0.375, 1.0]), st.integers(0, step)
    labels = sorted(draw(st.sets(st.sampled_from(RENDER_LABELS))))
    cells = {label: (draw(values), 0, draw(stamps)) for label in labels}
    shared, edges = (draw(values), draw(stamps)), {}
    for pair in combinations(labels, 2):
        kind = draw(st.sampled_from(["none", "shared", "own"]))
        if kind != "none":
            edges[pair] = shared if kind == "shared" else (draw(values), draw(stamps))
    mmap = MindMap(cells, edges)
    mmap.step = step
    mmap.keep_w, mmap.keep_a = draw(st.sampled_from([1.0, 0.75])), draw(st.sampled_from([1, 0.5]))
    return mmap


@settings(max_examples=300, deadline=None)
@given(built_maps())
def test_render_matches_reference_on_built_maps(mmap):
    state = state_of(mmap)
    assert render_snapshot(state) == reference_render_snapshot(state)
