"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
import time
from itertools import combinations

import pytest

from mindstream.apriori import apriori, apriori_levels, negative_border
from mindstream.dynamics import ingest_transaction
from mindstream.engine import Engine
from mindstream.memory import query_ltm
from mindstream.model import EngineParams, MindMap
from mindstream.skeleton import derive_rules, extract_skeleton
from mindstream.snapshot import load_snapshot, render_snapshot, save_snapshot
from mindstream.stream import read_transactions

from helpers import (
    brute_force_frequent,
    random_engine_state,
    random_transactions,
    replay,
    skeleton_nodes,
    triangle_gap_threshold,
    txn,
    worked_example_transactions,
)

NO_DECAY = EngineParams(beta_w=0.0, beta_a=0.0, epsilon=0.0)


def ok(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


def test_acceptance_1_worked_example_replay():
    start = time.perf_counter()
    txns = worked_example_transactions()
    engine = Engine(EngineParams())
    engine.ingest(txns[0])
    for pair in [("A", "C"), ("A", "D"), ("C", "D")]:
        assert abs(engine.mmap.get_weight(*pair) - 1 / 3) <= 1e-12
    for t in txns[1:]:
        engine.ingest(t)

    triangle = {("B", "C"), ("B", "E"), ("C", "E")}
    lo = min(c.weight for p, c in engine.mmap.edges.items() if p in triangle)
    hi = max(c.weight for p, c in engine.mmap.edges.items() if p not in triangle)
    assert lo > hi, "no strict weight gap below the B-C-E triangle"

    theta = (lo + hi) / 2
    skel = extract_skeleton(engine.mmap, theta)
    assert skeleton_nodes(skel) == {"B", "C", "E"}
    rules = {(r.antecedent, r.consequent) for r in derive_rules(skel)}
    assert rules == {
        ("E", "B"), ("B", "E"), ("E", "C"), ("C", "E"), ("C", "B"), ("B", "C")
    }
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    ok(1, f"worked-example replay, gap ({hi:.4f}, {lo:.4f}), {elapsed:.3f}s")


def test_acceptance_2_apriori_oracle():
    start = time.perf_counter()
    txns = [
        txn(["A", "C", "D"]),
        txn(["B", "C", "E"]),
        txn(["A", "B", "C", "E"]),
        txn(["B", "C", "E"]),
    ]
    got = {s.items: s.support for s in apriori(txns, 2)}
    assert got == {
        ("A",): 2, ("B",): 3, ("C",): 4, ("E",): 3,
        ("A", "C"): 2, ("B", "C"): 3, ("B", "E"): 3, ("C", "E"): 3,
        ("B", "C", "E"): 3,
    }
    assert got == brute_force_frequent(txns, 2)
    c2, f2 = apriori_levels(txns, 2)[1]
    assert [s.items for s in negative_border(c2, f2)] == [("A", "B"), ("A", "E")]

    rng = random.Random(2024)
    for trial in range(200):
        n_items = rng.randint(1, 8)
        alphabet = [chr(ord("a") + k) for k in range(n_items)]
        db = random_transactions(rng, alphabet, rng.randint(1, 30), max_size=n_items)
        minsup = rng.randint(1, 5)
        mine = {s.items: s.support for s in apriori(db, minsup)}
        assert mine == brute_force_frequent(db, minsup), f"trial {trial}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    ok(2, f"apriori equals brute force on 200 random databases, {elapsed:.2f}s")


def _random_lines(rng, n_txns, alphabet):
    lines = []
    for tid in range(1, n_txns + 1):
        for name in rng.sample(alphabet, rng.randint(1, min(4, len(alphabet)))):
            lines.append(f"2004-03-01;{tid};{name}\n")
    return lines


def _run_lines(lines, chunk):
    """Replay `lines` delivered in chunks of `chunk` lines; a chunk may end
    inside a transaction."""
    chunks = (lines[i : i + chunk] for i in range(0, len(lines), chunk))
    engine = Engine(EngineParams())
    for t in read_transactions(line for c in chunks for line in c):
        engine.ingest(t)
    return render_snapshot(engine.state)


def test_acceptance_3_determinism():
    rng = random.Random(31)
    lines = _random_lines(rng, 1000, list("ABCDEFGH"))
    first = _run_lines(lines, 10**9)
    second = _run_lines(lines, 10**9)
    assert first == second
    for chunk in (1, 3, 17, 256):
        assert _run_lines(lines, chunk) == first
    ok(3, "1,000-transaction replays byte-identical across runs and chunkings")


def test_acceptance_4_capacity_bounds():
    alphabet = [f"i{k:02d}" for k in range(20)]
    settings = [
        NO_DECAY,
        EngineParams(),
        EngineParams(beta_w=0.1, beta_a=0.2, epsilon=0.05, theta_w=0.5),
    ]
    for si, params in enumerate(settings):
        rng = random.Random(400 + si)
        m = MindMap()
        for t in random_transactions(rng, alphabet, 300, max_size=6):
            m, _ = ingest_transaction(m, t, params)
            assert len(m.cells) <= 20
            assert len(m.edges) <= 190
    ok(4, "cell count <= 20 and edge count <= 190 at every step, all decay settings")


def test_acceptance_5_permutation_invariance():
    rng = random.Random(55)
    alphabet = list("abcdefgh")
    for stream_i in range(50):
        stream = random_transactions(rng, alphabet, rng.randint(5, 20))
        baseline = set(replay(stream, NO_DECAY).mmap.edges)
        for perm_i in range(10):
            shuffled = stream[:]
            random.Random(1000 * stream_i + perm_i).shuffle(shuffled)
            assert set(replay(shuffled, NO_DECAY).mmap.edges) == baseline

    # with decay enabled, order changes weights for at least one pair
    decayed = EngineParams()
    stream = random_transactions(random.Random(77), alphabet, 20)
    weights = []
    for perm_i in range(10):
        shuffled = stream[:]
        random.Random(perm_i).shuffle(shuffled)
        final = replay(shuffled, decayed).mmap
        weights.append({p: c.weight for p, c in final.edges.items()})
    assert any(weights[0] != w for w in weights[1:]), (
        "decay-enabled replay unexpectedly order-independent"
    )
    ok(5, "edge set permutation-invariant at beta=0; weights order-dependent with decay")


def test_acceptance_6_monotonicity_without_decay():
    rng = random.Random(66)
    alphabet = [f"i{k}" for k in range(15)]
    m = MindMap()
    previous = {}
    for t in random_transactions(rng, alphabet, 1000):
        m, _ = ingest_transaction(m, t, NO_DECAY)
        for pair, conn in m.edges.items():
            assert 0.0 <= conn.weight <= 1.0
            if pair in previous:
                assert conn.weight >= previous[pair]
        for cell in m.cells.values():
            assert 0.0 <= cell.activation <= 1.0
        previous = {p: c.weight for p, c in m.edges.items()}
    ok(6, "weights non-decreasing and all ranges closed over 1,000 steps at beta=0")


def test_acceptance_7_memory_lifecycle():
    probe = replay(worked_example_transactions())
    theta = triangle_gap_threshold(probe)
    params = EngineParams(theta_w=theta, promote_after=2)
    engine = Engine(params)
    for t in worked_example_transactions():
        engine.ingest(t)
    # one decay-only step keeps the triangle above theta: second consecutive
    # step, so the pattern is promoted
    engine.ingest(txn([]))
    opens = query_ltm(engine.state.ltm, "open")
    assert [r.signature for r in opens] == [("B", "C", "E")]
    record = opens[0]
    assert record.recurrence_count == 1

    for _ in range(199):
        engine.ingest(txn([]))
    closed = engine.state.ltm[("B", "C", "E")]
    assert not closed.is_open
    assert closed.appeared_at <= closed.disappeared_at

    for _ in range(50):
        engine.ingest(txn(["B", "C", "E"]))
        if engine.state.ltm[("B", "C", "E")].recurrence_count == 2:
            break
    record = engine.state.ltm[("B", "C", "E")]
    assert record.is_open and record.recurrence_count == 2
    ok(7, "B|C|E record opened, closed under decay, reopened with recurrence 2")


def test_acceptance_8_forgetting():
    recurring = ["r1", "r2"]
    stream = [txn(["once"] + recurring)] + [txn(recurring) for _ in range(499)]
    engine = replay(stream, EngineParams())
    assert "once" not in engine.mmap.cells
    assert all(label in engine.mmap.cells for label in recurring)
    assert engine.mmap.get_weight("r1", "r2") is not None
    ok(8, "one-shot item forgotten, recurring items survive over 500 steps")


def test_acceptance_9_snapshot_round_trip(tmp_path):
    rng = random.Random(909)
    for i in range(100):
        state = random_engine_state(rng)
        p1 = tmp_path / f"a{i}.snap"
        p2 = tmp_path / f"b{i}.snap"
        save_snapshot(state, str(p1))
        save_snapshot(load_snapshot(str(p1)), str(p2))
        assert p1.read_bytes() == p2.read_bytes()
    ok(9, "save-load-save byte-identical for 100 random engine states")
