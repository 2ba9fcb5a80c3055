import random

import pytest
from hypothesis import given, strategies as st

from mindstream.engine import Engine
from mindstream.memory import detect_patterns
from mindstream.model import EngineParams, MindMap
from mindstream.dynamics import ingest_transaction
from mindstream.queries import run_static_query
from mindstream.skeleton import (
    adjacency,
    components,
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
    theta_a = final_engine.mmap.cells["D"][0] + 1e-9
    skel = extract_skeleton(final_engine.mmap, 0.0, theta_a)
    assert "D" not in skeleton_nodes(skel)


def rules(engine, theta_w):
    """The (antecedent, consequent) of each line of the `rules` answer."""
    answer = run_static_query(engine.state, ["rules", "--theta-w", repr(theta_w)])
    return [tuple(line.split()[0:3:2]) for line in answer.splitlines()]


def test_six_rules_from_the_triangle(final_engine):
    theta = triangle_gap_threshold(final_engine)
    got = rules(final_engine, theta)
    assert set(got) == {
        ("E", "B"), ("B", "E"),
        ("E", "C"), ("C", "E"),
        ("C", "B"), ("B", "C"),
    }
    assert len(got) == 6


def test_rules_empty_and_single_edge():
    assert rules(Engine(), 0.0) == []
    engine = replay([txn(["X", "Y"])])
    assert rules(engine, 0.0) == [("X", "Y"), ("Y", "X")]


def test_rule_symmetry_closure(final_engine):
    got = rules(final_engine, 0.0)
    assert set(got) == {(c, a) for a, c in got}
    assert all(a != c for a, c in got)


def test_strongest_subgraph_is_the_triangle(final_engine):
    theta = triangle_gap_threshold(final_engine)
    top = strongest_subgraphs(final_engine.mmap, theta, 1)
    assert [sig for sig, _ in top] == [("B", "C", "E")]
    triangle = [final_engine.mmap.edges[p][0] for p in [("B", "C"), ("B", "E"), ("C", "E")]]
    assert top[0][1] == sum(triangle) / 3


def test_strongest_subgraphs_empty_map():
    assert strongest_subgraphs(MindMap(), 0.5, 3) == []
    with pytest.raises(ValueError):
        strongest_subgraphs(MindMap(), 0.5, 0)


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
    """Ingest one transaction; return the engine's signatures, the STM keys,
    after checking them against a full extraction and that no two share a node."""
    engine.ingest(txn(items))
    p = engine.params
    patterns = set(engine.stm)
    assert patterns == detect_patterns(extract_skeleton(engine.mmap, p.theta_w, p.theta_a))
    assert len(set().union(*patterns)) == sum(map(len, patterns))
    return patterns


def test_bridge_decaying_below_theta_w_splits_the_signature():
    engine = Engine(EngineParams(beta_w=0.1, beta_a=0.0, epsilon=0.01, theta_w=0.46))
    for items in (["A", "B"], ["C", "D"]) * 3:
        step_patterns(engine, items)
    assert step_patterns(engine, ["B", "C"]) == {("A", "B", "C", "D")}
    # Only the bridge changes: 0.5 * 0.9 < theta_w, while A-B is reinforced
    # and C-D decays from well above it.
    assert step_patterns(engine, ["A", "B"]) == {("A", "B"), ("C", "D")}
    assert engine.mmap.get_weight("B", "C") < 0.46
    # Both pieces are new signatures: each starts a run at this step.
    assert engine.stm == {("A", "B"): engine.step, ("C", "D"): engine.step}


def test_one_pair_joins_two_components():
    engine = Engine(EngineParams(beta_w=0.0, beta_a=0.0, epsilon=0.01, theta_w=0.5))
    step_patterns(engine, ["A", "B"])
    step_patterns(engine, ["X", "C"])
    assert step_patterns(engine, ["C", "D"]) == {("A", "B"), ("C", "D", "X")}
    assert step_patterns(engine, ["B", "C"]) == {("A", "B", "C", "D", "X")}
    assert engine.stm == {("A", "B", "C", "D", "X"): engine.step}


def test_edge_leaves_below_theta_a_and_returns_when_its_end_is_touched():
    params = EngineParams(beta_w=0.0, beta_a=0.2, epsilon=0.01, theta_w=0.4, theta_a=0.65)
    engine = Engine(params)
    assert step_patterns(engine, ["A", "B"]) == {("A", "B")}
    # A decays to 0.75 * 0.8 < theta_a; B is boosted. A-B keeps its weight.
    assert step_patterns(engine, ["B", "C", "C"]) == {("B", "C")}
    assert engine.mmap.get_activation("A") < 0.65
    assert engine.mmap.get_weight("A", "B") >= 0.4
    # A-B stays in the heavy adjacency; the search skips the dark A.
    assert engine._adj == {"A": {"B"}, "B": {"A", "C"}, "C": {"B"}}
    assert engine._dark == {"A"}
    # Touching A alone brings the untouched edge A-B back.
    assert step_patterns(engine, ["A"]) == {("A", "B", "C")}
    assert engine._adj == {"A": {"B"}, "B": {"A", "C"}, "C": {"B"}}
    assert not engine._dark


# Heavy pairs that never decay (beta_w = 0); a cell left untouched goes dark
# after a few steps, while one touched every other step stays lit.
DARK_PATH = EngineParams(beta_w=0.0, beta_a=0.1, epsilon=0.01, theta_w=0.5, theta_a=0.6)


def test_a_dark_middle_cell_leaves_no_pattern_on_a_path_of_three():
    engine = Engine(DARK_PATH)
    step_patterns(engine, ["A", "B"])
    assert step_patterns(engine, ["B", "C"]) == {("A", "B", "C")}
    for items in (["A"], ["C"], ["A"]):
        assert step_patterns(engine, items) == {("A", "B", "C")}
    # B goes dark: A and C are lit, but each is left with no kept pair.
    assert step_patterns(engine, ["C"]) == set()
    assert engine._dark == {"B"}
    assert engine._adj == {"A": {"B"}, "B": {"A", "C"}, "C": {"B"}}
    assert step_patterns(engine, ["B"]) == {("A", "B", "C")}
    assert not engine._dark


def test_a_dark_cell_splits_off_the_rest_of_its_path():
    engine = Engine(DARK_PATH)
    for items in (["A", "B"], ["B", "C"]):
        step_patterns(engine, items)
    for items in (["C", "D"], ["A"], ["C"]):
        assert step_patterns(engine, items) == {("A", "B", "C", "D")}
    # B goes dark: A is a singleton, and C-D is all that is kept.
    assert step_patterns(engine, ["D"]) == {("C", "D")}
    assert engine._dark == {"B"}
    assert engine.stm == {("C", "D"): engine.step}


def test_a_pair_born_heavy_between_dark_cells_joins_once_both_are_lit():
    # Born at 0.5 and boosted to 0.75, a cell stays below theta_a = 0.9
    # until it is touched twice more.
    params = EngineParams(beta_w=0.0, beta_a=0.01, epsilon=0.01, theta_w=0.5, theta_a=0.9)
    engine = Engine(params)
    step_patterns(engine, ["A"])
    step_patterns(engine, ["B"])
    assert step_patterns(engine, ["A", "B"]) == set()  # born at theta_w
    assert engine._adj == {"A": {"B"}, "B": {"A"}} and engine._dark == {"A", "B"}
    assert step_patterns(engine, ["A"]) == set()  # A is lit, and its one pair has a dark end
    assert engine._dark == {"B"}
    assert step_patterns(engine, ["B"]) == {("A", "B")}
    assert not engine._dark


def test_at_theta_a_zero_no_cell_is_dark_or_due_and_above_it_some_is():
    # The step skips its per-cell pass at theta_a = 0 because the pass could
    # change nothing: no cell is ever dark, and no cell is filed in the
    # engine's wheel. Above 0 the same decaying stream darkens cells, which
    # only that pass starts.
    stream = random_transactions(random.Random(11), "abcdefghij", 300, max_size=5)
    for theta_a in (0.0, 0.6):
        engine = Engine(EngineParams(beta_w=0.05, beta_a=0.05, theta_w=0.3, theta_a=theta_a))
        darkened = filed = False
        for t in stream:
            engine.ingest(t)
            darkened |= bool(engine._dark)
            filed |= any(type(key) is str for b in engine._wheel.values() for key, _ in b)
            if theta_a == 0.0:
                assert not darkened and not filed, engine.step
        assert (darkened and filed) == (theta_a > 0), theta_a
