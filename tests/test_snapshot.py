import random
import re
from typing import List

import pytest
from hypothesis import example, given, settings, strategies as st

from mindstream.memory import LTMRecord, STMEntry
from mindstream.dynamics import ingest_transaction
from mindstream.model import PARAM_TYPES, Connection, EngineParams, ItemCell, MindMap, Transaction
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

from helpers import random_engine_state, random_transactions, replay, worked_example_transactions
from reference_snapshot import parse_signature as reference_parse_signature
from reference_snapshot import parse_snapshot as reference_parse_snapshot


def state_of(mmap, params=EngineParams(), stm=None, ltm=None):
    ltm = {r.signature: r for r in ltm or []}
    return EngineState(mmap, params, stm or {}, ltm)


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
    for pair, conn in engine.mmap.edges.items():
        assert loaded.mmap.edges[pair].weight == engine.mmap.weight_of(conn)
    for label, cell in engine.mmap.cells.items():
        assert loaded.mmap.cells[label].activation == engine.mmap.activation_of(cell)


def test_parsed_values_are_those_of_the_snapshot_step():
    # A parsed map's origin is its step: its values read as written, and a
    # step on it decays an untouched record from there, not from its stamp.
    engine = replay(worked_example_transactions())
    loaded = parse_snapshot(render_snapshot(engine.state)).mmap
    assert loaded.origin == loaded.step == 4
    conn = loaded.edges[("A", "D")]  # stamped at step 1
    assert loaded.weight_of(conn) == conn.weight
    ingest_transaction(loaded, Transaction(None, {}), engine.params)
    assert loaded.weight_of(conn) == conn.weight * (1 - engine.params.beta_w)
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
        for pair, conn in parsed.edges.items():
            assert parsed.weight_of(conn) == pytest.approx(original.get_weight(*pair), rel=1e-12)
    assert forgotten > 20 and parsed.edges.keys() == original.edges.keys()


def test_awkward_labels_round_trip():
    weird = ['with space', 'tab\there', '"quoted"', "back\\slash", "pi|pe"]
    a, b = sorted(weird)[:2]
    mmap = MindMap(
        {label: ItemCell(0.5, 0, 0) for label in weird}, {(a, b): Connection(0.25, 0)}
    )
    sig = tuple(sorted(weird[:3]))
    stm = {sig: STMEntry(0, 1)}
    ltm = [LTMRecord(sig, 0, None, 1)]
    text = render_snapshot(state_of(mmap, stm=stm, ltm=ltm))
    loaded = parse_snapshot(text)
    assert set(loaded.mmap.cells) == set(weird)
    assert loaded.mmap.edges[(a, b)].weight == 0.25
    assert list(loaded.stm) == [sig]
    assert list(loaded.ltm) == [sig] and loaded.ltm[sig].signature == sig
    assert render_snapshot(loaded) == text


def test_load_errors():
    with pytest.raises(SnapshotError, match="missing header"):
        parse_snapshot("")
    with pytest.raises(SnapshotError, match="missing header"):
        parse_snapshot("MINDMAP v2\nstep 0\n")
    with pytest.raises(SnapshotError, match="missing step"):
        parse_snapshot("MINDMAP v1\n")
    good = render_snapshot(state_of(MindMap()))
    with pytest.raises(SnapshotError, match="line 11"):
        parse_snapshot(good + "cell onlytwo 0.5\n")
    with pytest.raises(SnapshotError, match="missing params"):
        parse_snapshot("MINDMAP v1\nstep 0\n")


def test_ltm_open_marker():
    ltm = [LTMRecord(("A", "B"), 3, None, 1), LTMRecord(("C", "D"), 1, 5, 2)]
    text = render_snapshot(state_of(MindMap(step=5), ltm=ltm))
    assert "ltm C|D 1 5 2" in text
    assert "ltm A|B 3 open 1" in text
    loaded = parse_snapshot(text)
    assert loaded.ltm[("A", "B")].is_open
    assert loaded.ltm[("C", "D")].disappeared_at == 5


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
    mmap.cells["A"] = ItemCell(x, 0, 0)
    loaded = parse_snapshot(render_snapshot(state_of(mmap)))
    assert loaded.mmap.cells["A"].activation == x


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
    cells = {"A": ItemCell(0.5, 1, 3), "B": ItemCell(0.5, 1, 3)}
    mmap = MindMap(cells, {("A", "B"): Connection(0.75, 3)}, step=3)
    sig = ("A", "B")
    state = state_of(mmap, stm={sig: STMEntry(2, 2)}, ltm=[LTMRecord(sig, 3, None, 1)])
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
    with pytest.raises(SnapshotError, match=error) as caught:
        parse_snapshot("\n".join(lines) + "\n")
    # Each record is checked on its own line. Only the endpoint check needs
    # the finished map, so its error names no line.
    assert caught.value.lineno == (None if record.startswith("edge a z") else lineno)
    if error.startswith(f"{name} must be "):
        assert re.fullmatch(f"line {lineno}: {error}", str(caught.value))


def test_edge_key_is_canonicalized():
    state = parse_snapshot("\n".join(snapshot_with("edge b a 0.25 2")) + "\n")
    assert list(state.mmap.edges) == [("a", "b")]
    assert state.mmap.edges[("a", "b")].weight == 0.25


# The differential fuzz starts from one small valid snapshot (a quoted label,
# an open and a closed LTM record) and mutates it: it swaps tokens, inserts
# lines, repeats, deletes and shuffles them.
FUZZ_BASE = render_snapshot(
    state_of(
        MindMap(
            {
                "a": ItemCell(0.5, 1, 3),
                "b": ItemCell(0.75, 0, 4),
                "c": ItemCell(0.25, 2, 2),
                "x y": ItemCell(1.0, 4, 4),
            },
            {
                ("a", "b"): Connection(0.5, 3),
                ("a", "c"): Connection(0.125, 2),
                ("b", "x y"): Connection(1.0, 4),
            },
            step=4,
        ),
        stm={("a", "b"): STMEntry(3, 2)},
        ltm=[LTMRecord(("a", "b"), 4, None, 1), LTMRecord(("b", "c"), 1, 3, 2)],
    )
).splitlines()
FUZZ_TOKENS = [
    "a", "b", "z", '"x y"', '""', '" "', '"a', "a\\", "nan", "-0.0", "0", "1", "1.5",
    "-1", "2", "3", "4", "5", "0.5", "inf", "2.0", "open", "a|a", "b|a", "a|b", "a|b|c",
    "a|z", "a|x y", "a\\|b", "bogus", "promote_after", "eta", "edge", "cell", "param",
    "stm", "ltm", "step",
]
FUZZ_LINES = [
    "edge a a 0.5 2", "edge a z 0.5 1", "edge b a 0.25 1", "edge c b 0.75 4",
    "cell z 0.5 0 1", 'cell "" 0.5 0 1', "param bogus 3", "param promote_after 2",
    "stm a|c 1 1", "stm a|b|c 4 1", "ltm a|z 0 open 1", "", " ", "step 4", "MINDMAP v1",
]


@st.composite
def mutated_snapshots(draw):
    lines = list(FUZZ_BASE)
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


@settings(max_examples=1000, deadline=None)
@given(mutated_snapshots())
@example("\n".join(FUZZ_BASE + ["param promote_after 2"]) + "\n")
@example("\n".join(FUZZ_BASE + ["edge a z 0.5 1"]) + "\n")
@example("\n".join(FUZZ_BASE + ["edge b c 1.5 1"]) + "\n")
@example("\n".join(FUZZ_BASE + ["param bogus 3"]) + "\n")
def test_parser_matches_reference(text):
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
