"""Metamorphic checks: renaming the labels commutes with every output.

A record's arithmetic reads only its own cells and edges, so a bijective
renaming of the labels gives the same state, bit for bit, up to the
renaming; no oracle is needed. The streams are churn-like: Zipf-like
background baskets with planted patterns that rotate, so that edges and
cells are forgotten and patterns are promoted, lapse and reopen.

- (a) A drawn bijection into labels that need quotes, escapes or the
  checking side of the parse (spaces, `|`, a leading `"`, `\\`, `_`, `é`)
  scrambles label order. The cells, edges, STM and LTM renamed back, each
  step's event lines as a multiset (lines within a step follow label order),
  and both snapshots parsed back must be equal. Plain labels take the
  unquoted paths of `_report`, `_quote`, `_fmt_signature` and
  `parse_snapshot`, renamed ones the checked paths, so each run also
  compares the two.
- (b) Respelling the dates and refs of the TIDs, with the grouping kept,
  gives byte-identical snapshots, events and stdout.
- (c) `patterns`, `skeleton`, `rules`, `ltm` and `strongest` answers commute
  with an order-preserving renaming; `strongest` breaks ties by the
  smallest label, so it is compared only under such a renaming.

The high-floor set (lam 0.05, epsilon 0.3) forgets edges born below the
floor, in the step that files them. The eta set (0.3) checks that a Hebbian
term does not depend on which end of a pair comes first, as it would in its
last bit if eta multiplied one activation before the other.
"""

import contextlib
import io
import random
import re
import tempfile
from collections import Counter, defaultdict
from functools import lru_cache
from pathlib import Path
from typing import Dict, List

import pytest
from hypothesis import given, settings, strategies as st

from mindstream.cli import main
from mindstream.engine import Engine
from mindstream.model import EngineParams
from mindstream.queries import run_static_query
from mindstream.snapshot import (
    EngineState,
    _parse_signature,
    _tokenize,
    parse_snapshot,
    render_snapshot,
)

from helpers import txn

PARAMS = {
    "defaults": EngineParams(),
    "dark": EngineParams(theta_a=0.6, promote_after=1, theta_w=0.7),
    "high-floor": EngineParams(lam=0.05, epsilon=0.3, theta_w=0.5),
    "eta": EngineParams(eta=0.3),
}
# What renamed labels are drawn from: each needs quotes, an escape or the
# checking side of the parse. No digit, so the index appended keeps them distinct.
AWKWARD = ' |"\\_éa'


@lru_cache(maxsize=None)
def churn(seed: int, n: int = 400) -> tuple:
    """`n` baskets: 2-5 draws (repeats allowed) from 80 Zipf-weighted
    background items, plus, in 60% of baskets, the planted pattern of the
    current 50-step period, one of three in turn."""
    rng = random.Random(seed)
    background = [f"b{k:02d}" for k in range(80)]
    weights = [1.0 / (k + 1) for k in range(80)]
    planted = [["p0", "p1", "p2", "p3"], ["p4", "p5", "p6"], ["p7", "p8", "p9", "p3"]]
    baskets = []
    for t in range(n):
        basket = rng.choices(background, weights, k=rng.randint(2, 5))
        if rng.random() < 0.6:
            basket += planted[(t // 50) % len(planted)]
        baskets.append(tuple(basket))
    return tuple(baskets)


def labels_of(baskets) -> List[str]:
    return sorted({x for basket in baskets for x in basket})


def run(baskets, params: EngineParams, name=None) -> Engine:
    engine = Engine(params)
    for basket in baskets:
        engine.ingest(txn([x if name is None else name[x] for x in basket]))
    return engine


@lru_cache(maxsize=None)
def original(key: str, seed: int) -> Engine:
    return run(churn(seed), PARAMS[key])


def renamed_back(state: EngineState, back: Dict[str, str]) -> tuple:
    """The step, parameters, cells, edges, STM and LTM of `state`, every label
    renamed by `back`, pairs and signatures in canonical order."""
    m = state.mmap

    def sig(s):
        return tuple(sorted(back[x] for x in s))

    return (
        m.step,
        state.params,
        {back[x]: cell for x, cell in m.cells.items()},
        {sig(pair): edge for pair, edge in m.edges.items()},
        {sig(s): run for s, run in state.stm.items()},
        {sig(s): record for s, record in state.ltm.items()},
    )


def events_back(lines: List[str], back: Dict[str, str]) -> Dict[int, Counter]:
    """Each step's event lines as a multiset of (kind, labels), read back
    through the snapshot tokenizer and renamed by `back`."""
    steps: Dict[int, Counter] = defaultdict(Counter)
    for line in lines:
        step, kind, *rest = _tokenize(line, 0)
        if kind.startswith("pattern-"):
            (token,) = rest
            rest = _parse_signature(token)
        steps[int(step)][kind, tuple(sorted(back[x] for x in rest))] += 1
    return steps


def identity(labels) -> Dict[str, str]:
    return {x: x for x in labels}


def bijections(labels: List[str]):
    """Renamings of `labels` into distinct labels drawn from AWKWARD."""
    frags = st.lists(st.text(AWKWARD, min_size=1, max_size=3), min_size=len(labels),
                     max_size=len(labels))
    return frags.map(lambda fs: {x: f"{f}{i}" for i, (x, f) in enumerate(zip(labels, fs))})


@pytest.mark.parametrize("key", sorted(PARAMS))
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_a_bijective_renaming_commutes_with_state_events_and_snapshots(key, data):
    baskets = churn(1)
    labels = labels_of(baskets)
    name = data.draw(bijections(labels), label="renaming")
    back = {y: x for x, y in name.items()}
    assert len(back) == len(name)
    base, engine = original(key, 1), run(baskets, PARAMS[key], name)
    assert renamed_back(engine.state, back) == renamed_back(base.state, identity(labels))
    assert events_back(engine.event_lines, back) == events_back(base.event_lines, identity(labels))
    parsed = parse_snapshot(render_snapshot(engine.state))
    parsed_base = parse_snapshot(render_snapshot(base.state))
    assert renamed_back(parsed, back) == renamed_back(parsed_base, identity(labels))


@pytest.mark.parametrize("key", sorted(PARAMS))
def test_the_streams_reach_every_kind_of_event(key):
    # Otherwise the renamings above would compare empty outputs.
    kinds = Counter(line.split()[1] for line in original(key, 1).event_lines)
    assert kinds["edge-forgotten"] > 100 and kinds["cell-forgotten"] > 10, kinds
    assert kinds["pattern-promoted"] > 0 and kinds["pattern-closed"] > 0, kinds
    if key == "high-floor":  # edges of 4 or more items are born below the floor
        born_low, lines = 0, original(key, 1).event_lines
        for events in events_back(lines, identity(labels_of(churn(1)))).values():
            created = {pair for kind, pair in events if kind == "edge-created"}
            born_low += sum(kind == "edge-forgotten" and pair in created for kind, pair in events)
        assert born_low > 1000, born_low


def stream_text(baskets, date, ref, pad: int, spaces: str) -> str:
    """One `date;ref;name` record per item of each basket, the TID of basket
    t spelled by `date(t)` and `ref(t)`, the ref zero-padded by `pad` more
    digits on every other record, and `spaces` around every field."""
    s = spaces
    lines = []
    for t, basket in enumerate(baskets):
        for i, x in enumerate(basket):
            r = f"{ref(t):0{len(str(ref(t))) + pad * (i % 2)}d}"
            lines.append(f"{s}{date(t)}{s};{s}{r}{s};{s}{x}{s}\n")
    return "".join(lines)


def cli_run(text: str, key: str) -> tuple:
    """The snapshot, events and stdout of `mindstream run` over `text`."""
    p = PARAMS[key]
    flags = ["--lambda", p.lam, "--epsilon", p.epsilon, "--theta-w", p.theta_w,
             "--theta-a", p.theta_a, "--promote-after", p.promote_after]
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "in.txt").write_text(text, encoding="utf-8")
        argv = ["run", "--input", d / "in.txt", "--snapshot", d / "s", "--events", d / "e",
                "--trace", "p0", "p1", "--trace", "b00", "b01", "--horizon", 400, *flags]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main([str(a) for a in argv]) == 0
        return (d / "s").read_bytes(), (d / "e").read_bytes(), out.getvalue()


@lru_cache(maxsize=None)
def cli_original(key: str) -> tuple:
    return cli_run(stream_text(churn(2), lambda t: "2004-03-01", lambda t: t, 0, ""), key)


DATES = {
    "one day": lambda t: "2004-03-01",
    "a day per basket": lambda t: f"{2000 + t // 365:04d}-{1 + t // 28 % 12:02d}-{1 + t % 28:02d}",
    "a day per 7 baskets": lambda t: f"1999-12-{1 + t // 7 % 31:02d}",
}
REFS = {
    "index": lambda t: t,
    "scaled": lambda t: 13 * t + 5,
    "alternating": lambda t: t % 2,  # a TID that reappears after another starts a new basket
}


@pytest.mark.parametrize("key", ["dark", "high-floor"])
@settings(max_examples=3, deadline=None)
@given(
    date=st.sampled_from(sorted(DATES)),
    ref=st.sampled_from(sorted(REFS)),
    pad=st.integers(0, 3),
    spaces=st.sampled_from(["", " ", "\t "]),
)
def test_respelling_the_tids_keeps_every_output_byte_identical(key, date, ref, pad, spaces):
    text = stream_text(churn(2), DATES[date], REFS[ref], pad, spaces)
    assert cli_run(text, key) == cli_original(key)


def read_back(kind: str, text: str, back: Dict[str, str]) -> List[list]:
    """Each line of a query answer as its tokens, the labels and signatures
    renamed by `back`; numbers and keywords as written."""
    rows = []
    for line in text.splitlines():
        if kind == "strongest":  # `rank [signature] mean-weight w`
            rank, sig, rest = re.fullmatch(r"(\d+) \[(.+)\] (.+)", line).groups()
            tokens = [rank, *_tokenize(sig, 0), *rest.split()]
        else:
            tokens = _tokenize(line, 0)
        if kind in ("patterns", "ltm", "strongest"):
            i = 0 if kind == "ltm" else 1
            tokens[i] = tuple(back[x] for x in _parse_signature(tokens[i]))
        elif kind == "rules":  # `A => B w`
            tokens[0], tokens[2] = back[tokens[0]], back[tokens[2]]
        else:  # skeleton: `nodes L...` and `edge A B w`
            end = len(tokens) if tokens[0] == "nodes" else 3
            tokens[1:end] = [back[x] for x in tokens[1:end]]
        rows.append(tokens)
    return rows


QUERIES = [
    ["patterns"],
    ["skeleton"],
    ["skeleton", "--theta-w", "0.3", "--theta-a", "0.7"],
    ["rules"],
    ["rules", "--theta-w", "0.3"],
    ["ltm"],
    ["ltm", "closed"],
    ["strongest", "--top", "5"],
    ["strongest", "--theta-w", "0.3", "--top", "8"],
]


@pytest.mark.parametrize("key", sorted(PARAMS))
@settings(max_examples=3, deadline=None)
@given(prefix=st.text(AWKWARD, min_size=1, max_size=3))
def test_queries_commute_with_an_order_preserving_renaming(key, prefix):
    baskets = churn(1)
    labels = labels_of(baskets)
    name = {x: prefix + x for x in labels}  # a common prefix keeps the order
    assert sorted(name.values()) == [name[x] for x in labels]
    back = {y: x for x, y in name.items()}
    state = parse_snapshot(render_snapshot(run(baskets, PARAMS[key], name).state))
    base = parse_snapshot(render_snapshot(original(key, 1).state))
    answered = 0
    for query in QUERIES:
        kind = query[0]
        expected = read_back(kind, run_static_query(base, query), identity(labels))
        assert read_back(kind, run_static_query(state, query), back) == expected, query
        answered += bool(expected)
    assert answered >= 6
