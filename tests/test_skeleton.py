import random

import pytest
from hypothesis import given, strategies as st

from mindstream.engine import Engine
from mindstream.memory import detect_patterns
from mindstream.model import EngineParams, MindMap
from mindstream.dynamics import ingest_transaction
from mindstream.skeleton import (
    adjacency,
    components,
    derive_rules,
    extract_skeleton,
    strongest_subgraphs,
)

from helpers import (
    random_transactions,
    replay,
    skeleton_nodes,
    triangle_gap_threshold,
    txn,
    worked_example_transactions,
)


@pytest.fixture(scope="module")
def final_engine():
    return replay(worked_example_transactions())


def test_skeleton_in_the_gap_is_the_triangle(final_engine):
    theta = triangle_gap_threshold(final_engine)
    skel = extract_skeleton(final_engine.mmap, theta)
    assert skeleton_nodes(skel) == {"B", "C", "E"}
    assert {pair for pair, _ in skel.edges} == {("B", "C"), ("B", "E"), ("C", "E")}


def test_zero_thresholds_keep_whole_graph(final_engine):
    skel = extract_skeleton(final_engine.mmap, 0.0, 0.0)
    assert skeleton_nodes(skel) == set(final_engine.mmap.cells)
    assert len(skel.edges) == len(final_engine.mmap.edges)


def test_threshold_above_one_empties_skeleton(final_engine):
    skel = extract_skeleton(final_engine.mmap, 1.0 + 1e-9, 0.0)
    assert not skeleton_nodes(skel) and not skel.edges


def test_activation_threshold_is_anded(final_engine):
    # D's activation decayed well below the others
    theta_a = final_engine.mmap.cells["D"].activation + 1e-9
    skel = extract_skeleton(final_engine.mmap, 0.0, theta_a)
    assert "D" not in skeleton_nodes(skel)


def test_six_rules_from_the_triangle(final_engine):
    theta = triangle_gap_threshold(final_engine)
    rules = derive_rules(extract_skeleton(final_engine.mmap, theta))
    got = {(r.antecedent, r.consequent) for r in rules}
    assert got == {
        ("E", "B"), ("B", "E"),
        ("E", "C"), ("C", "E"),
        ("C", "B"), ("B", "C"),
    }
    assert len(rules) == 6


def test_rules_empty_and_single_edge():
    assert derive_rules(extract_skeleton(MindMap(), 0.0)) == []
    engine = replay([txn(["X", "Y"])])
    rules = derive_rules(extract_skeleton(engine.mmap, 0.0))
    assert {(r.antecedent, r.consequent) for r in rules} == {("X", "Y"), ("Y", "X")}


def test_rule_symmetry_closure(final_engine):
    rules = derive_rules(extract_skeleton(final_engine.mmap, 0.0))
    got = {(r.antecedent, r.consequent) for r in rules}
    assert got == {(c, a) for a, c in got}
    assert all(r.antecedent != r.consequent for r in rules)


def test_strongest_subgraph_is_the_triangle(final_engine):
    theta = triangle_gap_threshold(final_engine)
    top = strongest_subgraphs(final_engine.mmap, theta, 1)
    assert [sig for sig, _ in top] == [("B", "C", "E")]
    triangle = [final_engine.mmap.edges[p].weight for p in [("B", "C"), ("B", "E"), ("C", "E")]]
    assert top[0][1] == sum(triangle) / 3


def test_strongest_subgraphs_empty_map():
    assert strongest_subgraphs(MindMap(), 0.5, 3) == []


def test_strongest_subgraphs_orders_by_mean_weight():
    m = MindMap()
    params = EngineParams(beta_w=0.0, beta_a=0.0, epsilon=0.0)
    m, _ = ingest_transaction(m, txn(["a", "b"]), params)  # w = 0.5
    m, _ = ingest_transaction(m, txn(["c", "d"]), params)  # w = 0.5
    m, _ = ingest_transaction(m, txn(["c", "d"]), params)  # reinforced > 0.5
    comps = strongest_subgraphs(m, 0.1, 2)
    assert [sig for sig, _ in comps] == [("c", "d"), ("a", "b")]
    assert comps[0][1] > comps[1][1] == 0.5


def test_strongest_subgraphs_tie_break_is_deterministic():
    m = MindMap()
    params = EngineParams(beta_w=0.0, beta_a=0.0, epsilon=0.0)
    m, _ = ingest_transaction(m, txn(["a", "b"]), params)
    m, _ = ingest_transaction(m, txn(["x", "y"]), params)  # equal mean, equal size
    comps = strongest_subgraphs(m, 0.1, 2)
    assert comps == [(("a", "b"), 0.5), (("x", "y"), 0.5)]


@given(st.floats(min_value=0, max_value=1), st.floats(min_value=0, max_value=1))
def test_raising_threshold_shrinks_skeleton(t1, t2):
    lo, hi = sorted((t1, t2))
    engine = replay(worked_example_transactions())
    big = extract_skeleton(engine.mmap, lo)
    small = extract_skeleton(engine.mmap, hi)
    assert skeleton_nodes(small) <= skeleton_nodes(big)
    assert set(small.edges) <= set(big.edges)


def test_components_partition_the_skeleton():
    rng = random.Random(8)
    alphabet = [f"i{k}" for k in range(14)]
    for _ in range(30):
        engine = replay(random_transactions(rng, alphabet, 25, max_size=3))
        skel = extract_skeleton(engine.mmap, rng.uniform(0.3, 0.6))
        adj = adjacency(pair for pair, _ in skel.edges)
        sigs = list(components(adj, adj))
        assert all(list(sig) == sorted(set(sig)) for sig in sigs)
        assert sum(len(sig) for sig in sigs) == len(skeleton_nodes(skel))
        assert frozenset().union(*sigs) == skeleton_nodes(skel)
        sig_of = {label: sig for sig in sigs for label in sig}
        assert all(sig_of[a] == sig_of[b] for (a, b), _ in skel.edges)
        # Several starts inside one component yield it once; starts are
        # searched in the order given.
        for sig in sigs:
            assert list(components(adj, [*sig, *reversed(sig)])) == [sig]
        assert list(components(adj, [])) == []
        starts = [label for sig in reversed(sigs) for label in sig]
        assert list(components(adj, starts)) == sigs[::-1]


# The engine keeps the kept skeleton between steps and searches components
# again only from the ends of the pairs that entered or left it.


def step_patterns(engine, items):
    """Ingest one transaction; return the engine's signatures after checking
    them against a full extraction, the STM keys and each node's signature."""
    engine.ingest(txn(items))
    p = engine.params
    assert engine._patterns == detect_patterns(extract_skeleton(engine.mmap, p.theta_w, p.theta_a))
    assert set(engine.stm) == engine._patterns
    assert engine._sig_of == {n: sig for sig in engine._patterns for n in sig}
    return engine._patterns


def test_bridge_decaying_below_theta_w_splits_the_signature():
    engine = Engine(EngineParams(beta_w=0.1, beta_a=0.0, epsilon=0.01, theta_w=0.46))
    for items in (["A", "B"], ["C", "D"]) * 3:
        step_patterns(engine, items)
    assert step_patterns(engine, ["B", "C"]) == {("A", "B", "C", "D")}
    # Only the bridge changes: 0.5 * 0.9 < theta_w, while A-B is reinforced
    # and C-D decays from well above it.
    assert step_patterns(engine, ["A", "B"]) == {("A", "B"), ("C", "D")}
    assert engine.mmap.get_weight("B", "C") < 0.46
    assert engine._sig_of == {"A": ("A", "B"), "B": ("A", "B"), "C": ("C", "D"), "D": ("C", "D")}


def test_one_pair_joins_two_components():
    engine = Engine(EngineParams(beta_w=0.0, beta_a=0.0, epsilon=0.01, theta_w=0.5))
    step_patterns(engine, ["A", "B"])
    step_patterns(engine, ["X", "C"])
    assert step_patterns(engine, ["C", "D"]) == {("A", "B"), ("C", "D", "X")}
    assert step_patterns(engine, ["B", "C"]) == {("A", "B", "C", "D", "X")}
    assert set(engine._sig_of) == {"A", "B", "C", "D", "X"}


def test_edge_leaves_below_theta_a_and_returns_when_its_end_is_touched():
    params = EngineParams(beta_w=0.0, beta_a=0.2, epsilon=0.01, theta_w=0.4, theta_a=0.65)
    engine = Engine(params)
    assert step_patterns(engine, ["A", "B"]) == {("A", "B")}
    # A decays to 0.75 * 0.8 < theta_a; B is boosted. A-B keeps its weight.
    assert step_patterns(engine, ["B", "C", "C"]) == {("B", "C")}
    assert engine.mmap.get_activation("A") < 0.65
    assert engine.mmap.get_weight("A", "B") >= 0.4
    assert engine._adj == {"B": {"C"}, "C": {"B"}}
    # Touching A alone brings the untouched edge A-B back.
    assert step_patterns(engine, ["A"]) == {("A", "B", "C")}
    assert engine._adj == {"A": {"B"}, "B": {"A", "C"}, "C": {"B"}}
