import gc
import random
from itertools import chain

import pytest
from hypothesis import given, strategies as st

from mindstream.model import (
    EngineParams,
    MindMap,
    SelfPairError,
    Transaction,
    canonical_pair,
    distinct_items,
)

from mindstream.snapshot import parse_snapshot, render_snapshot

from helpers import random_transactions, replay, worked_example_transactions
from reference_snapshot import check_invariants

labels = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), min_size=1
).filter(lambda s: s.strip())


def test_new_mindmap_is_empty():
    m = MindMap()
    assert m.cells == {} and m.edges == {} and m.step == 0
    assert len(m.cells) == 0
    assert len(m.edges) == 0


def test_newline_labels_are_rejected():
    with pytest.raises(ValueError):
        Transaction(None, {"a\nb": 1})
    with pytest.raises(ValueError):
        Transaction(None, distinct_items(["ok", "x\n"]))


def test_other_whitespace_labels_round_trip_through_snapshots():
    engine = replay([Transaction(None, {"a\rb": 1, "c\td": 1, "e\x0bf": 2})])
    text = render_snapshot(engine.state)
    assert render_snapshot(parse_snapshot(text)) == text
    assert sorted(parse_snapshot(text).mmap.cells) == ["a\rb", "c\td", "e\x0bf"]


def test_distinct_items_merges_duplicates():
    assert distinct_items(["A", "A", "C", "D"]) == {"A": 2, "C": 1, "D": 1}
    assert distinct_items(["B", "C", "E"]) == {"B": 1, "C": 1, "E": 1}
    assert distinct_items([]) == {}


def test_transaction_rejects_bad_counts():
    with pytest.raises(ValueError):
        Transaction(None, {"A": 0})
    with pytest.raises(ValueError):
        Transaction(None, {"  ": 1})
    with pytest.raises(ValueError):
        Transaction(None, {"A": 1})._replace(items={"A": 0})


@pytest.mark.parametrize("count", [1.5, 1.0, True])
def test_a_count_that_is_not_an_int_leaves_the_engine_unchanged(count):
    # `Transaction` must reject it: inside the step it would fail only after
    # the map's step counter had moved on.
    engine = replay(worked_example_transactions()[:1])
    before = render_snapshot(engine.state)
    with pytest.raises(ValueError):
        engine.ingest(Transaction(None, {"a": count, "b": 1}))
    assert engine.step == 1
    assert render_snapshot(engine.state) == before
    engine.ingest(worked_example_transactions()[1])
    assert engine.step == 2


def test_get_weight_after_first_transaction():
    engine = replay(worked_example_transactions()[:1])
    assert engine.mmap.get_weight("A", "C") == pytest.approx(1 / 3, abs=1e-15)
    assert engine.mmap.get_weight("C", "A") == engine.mmap.get_weight("A", "C")


def test_get_weight_absent_and_self_pair():
    m = MindMap()
    assert m.get_weight("A", "C") is None
    with pytest.raises(SelfPairError):
        m.get_weight("A", "A")


@given(labels, labels)
def test_canonical_pair_symmetric(a, b):
    if a == b:
        with pytest.raises(SelfPairError):
            canonical_pair(a, b)
    else:
        assert canonical_pair(a, b) == canonical_pair(b, a)
        assert set(canonical_pair(a, b)) == {a, b}


@pytest.mark.parametrize(
    "kwargs",
    [
        {"eta": 0.0},
        {"eta": 1.5},
        {"lam": 0.0},
        {"beta_w": 1.0},
        {"beta_a": -0.1},
        {"epsilon": 0.6, "theta_w": 0.5},
        {"theta_w": 1.1},
        {"promote_after": 0},
        {"promote_after": 2.5},
        {"promote_after": True},
    ],
)
def test_engine_params_validation(kwargs):
    with pytest.raises(ValueError):
        EngineParams(**kwargs)
    with pytest.raises(ValueError):
        EngineParams()._replace(**kwargs)


def test_invariants_hold_along_random_stream():
    rng = random.Random(7)
    alphabet = [f"i{k}" for k in range(12)]
    m = MindMap()
    params = EngineParams()
    seen = set()
    from mindstream.dynamics import ingest_transaction

    for t in random_transactions(rng, alphabet, 150):
        seen |= set(t.items)
        m, _ = ingest_transaction(m, t, params)
        check_invariants(m)
        assert len(m.cells) <= len(seen)
        n = len(m.cells)
        assert len(m.edges) <= n * (n - 1) // 2


def test_map_records_are_left_untracked_by_the_cyclic_gc():
    # A record is a tuple of a float and ints, which a collection stops
    # tracking; a record class would keep every edge and cell tracked.
    parsed = parse_snapshot(render_snapshot(replay(worked_example_transactions()).state)).mmap
    stream = random_transactions(random.Random(3), [f"i{k}" for k in range(10)], 200)
    stepped = replay(stream, EngineParams(beta_w=0.0, beta_a=0.0, epsilon=0.0)).mmap
    gc.collect()
    for mmap in (parsed, stepped):
        assert mmap.edges and mmap.cells
        assert not any(map(gc.is_tracked, chain(mmap.edges.values(), mmap.cells.values())))


def test_edge_enumeration_is_canonical():
    engine = replay(worked_example_transactions())
    for (a, b), conn in engine.mmap.edges.items():
        assert a < b
        assert (a, b) == canonical_pair(b, a)
        assert engine.mmap.get_weight(b, a) == engine.mmap.weight_of(conn)
