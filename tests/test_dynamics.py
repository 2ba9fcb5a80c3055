import math
import random
import tracemalloc
from collections import Counter
from itertools import combinations
from typing import Tuple

import pytest
from hypothesis import given, settings, strategies as st

from mindstream import dynamics
from mindstream.dynamics import (
    NoPairsError,
    activate_cell,
    decay_pass,
    due_step,
    file_due,
    hebbian_update,
    ingest_transaction,
    initial_weight,
    prune_forgotten,
)
from mindstream.engine import Engine
from mindstream.model import Cell, EngineParams, MindMap
from mindstream.snapshot import render_snapshot

from helpers import random_transactions, replay, txn, worked_example_transactions
from reference_snapshot import check_invariants

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
NO_DECAY = EngineParams(beta_w=0.0, beta_a=0.0, epsilon=0.0)


def test_initial_weight():
    assert initial_weight(3) == pytest.approx(1 / 3, abs=1e-15)
    assert initial_weight(2) == 0.5
    with pytest.raises(NoPairsError):
        initial_weight(1)


def test_activate_cell():
    assert activate_cell(0.5, 0.5) == 0.75
    assert activate_cell(1.0, 0.5) == 1.0
    assert activate_cell(0.0, 0.5) == 0.5


@given(unit, st.floats(min_value=1e-6, max_value=1.0))
def test_activate_cell_stays_in_range(a, lam):
    boosted = activate_cell(a, lam)
    assert a <= boosted <= 1.0


def test_hebbian_update():
    assert hebbian_update(1 / 3, 0.75, 0.75, 0.5) == pytest.approx(
        1 / 3 + 0.5 * 0.75 * 0.75 * (1 - 1 / 3), abs=1e-15
    )
    assert hebbian_update(1.0, 0.9, 0.9, 0.5) == 1.0
    assert hebbian_update(0.4, 0.0, 0.9, 0.5) == 0.4


@given(unit, unit, unit, unit)
def test_hebbian_update_monotone_and_bounded(w, ai, aj, eta):
    out = hebbian_update(w, ai, aj, eta)
    assert w <= out <= 1.0
    # strict growth, away from float-underflow territory
    if w <= 0.99 and min(ai, aj, eta) >= 1e-3:
        assert out > w


def test_first_transaction_creates_triangle():
    m, events = ingest_transaction(
        MindMap(), txn(["A", "A", "C", "D"]), EngineParams()
    )
    assert sorted(m.cells) == ["A", "C", "D"]
    for pair in [("A", "C"), ("A", "D"), ("C", "D")]:
        assert m.get_weight(*pair) == pytest.approx(1 / 3, abs=1e-15)
    # A was boosted twice from 0.5 (duplicate merge), C and D once
    assert m.cells["A"][0] == pytest.approx(0.875)
    assert m.cells["C"][0] == pytest.approx(0.75)
    assert m.cells["D"][0] == pytest.approx(0.75)
    assert m.step == 1
    assert events.cells_created == ["A", "C", "D"]
    assert len(events.edges_created) == 3


def test_second_transaction_joins_components():
    m1, _ = ingest_transaction(MindMap(), txn(["A", "A", "C", "D"]), EngineParams())
    c_before = m1.cells["C"][0]
    m2, _ = ingest_transaction(m1, txn(["B", "C", "E"]), EngineParams())
    assert sorted(m2.cells) == ["A", "B", "C", "D", "E"]
    assert m2.cells["C"][0] > c_before
    # one connected component through the shared cell C
    reach = {"C"}
    frontier = ["C"]
    while frontier:
        node = frontier.pop()
        for a, b in m2.edges:
            other = b if a == node else a if b == node else None
            if other and other not in reach:
                reach.add(other)
                frontier.append(other)
    assert reach == set(m2.cells)


def test_empty_transaction_only_decays():
    params = EngineParams()
    m1, _ = ingest_transaction(MindMap(), txn(["A", "C", "D"]), params)
    # the step updates the map in place: capture the pre-step values
    step_before = m1.step
    weights_before = {pair: w for pair, (w, _) in m1.edges.items()}
    activations_before = {label: a for label, (a, _, _) in m1.cells.items()}
    m2, _ = ingest_transaction(m1, txn([]), params)
    assert m2.step == step_before + 1
    assert sorted(m2.edges) == sorted(weights_before)
    for pair, edge in m2.edges.items():
        assert m2.weight_of(edge) == pytest.approx(weights_before[pair] * (1 - params.beta_w))
    for label, cell in m2.cells.items():
        assert m2.activation_of(cell) == pytest.approx(
            activations_before[label] * (1 - params.beta_a)
        )


def test_singleton_transaction_creates_cell_without_edges():
    m, events = ingest_transaction(MindMap(), txn(["A"]), EngineParams())
    assert sorted(m.cells) == ["A"]
    assert len(m.edges) == 0
    assert events.cells_created == ["A"]


def test_decay_pass_examples():
    # Each map is as decay sees it inside the step after the one that
    # stamped A, B and A-B, under the same parameters: values are read at
    # the map's step, and a record stamped with the current step reads as
    # stored. Nothing is due yet, so decay fades nothing.
    def next_step(params):
        m, _ = ingest_transaction(MindMap(), txn(["A", "B"]), params)
        m.step += 1
        assert decay_pass(m, params) == ([], [])
        return m, m.edges[("A", "B")]

    same, edge = next_step(EngineParams(beta_w=0.0, beta_a=0.0))
    assert same.weight_of(edge) == edge[0] == 0.5
    assert not same.wheel  # nothing decays, so nothing is filed

    decayed, edge = next_step(EngineParams(beta_w=0.02))
    assert decayed.weight_of(edge) == pytest.approx(0.5 * 0.98)
    assert edge[0] == 0.5  # stored as of its stamp

    skipped, edge = next_step(EngineParams(beta_w=0.02))
    skipped.edges[("A", "B")] = edge = (edge[0], skipped.step)
    assert skipped.weight_of(edge) == edge[0] == 0.5

    quiet, _ = next_step(EngineParams(beta_a=0.05))
    (a, born, _), b = quiet.cells["A"], quiet.cells["B"][0]
    quiet.cells["A"] = (a, born, quiet.step)
    assert quiet.activation_of(quiet.cells["A"]) == a
    assert quiet.activation_of(quiet.cells["B"]) == pytest.approx(b * 0.95)

    # An entry due in this step is decided on its value now: 0.5 * 0.1 < 0.1.
    params = EngineParams(beta_w=0.9, beta_a=0.0, epsilon=0.1)
    due, _ = ingest_transaction(MindMap(), txn(["A", "B"]), params)
    due.step += 1
    assert decay_pass(due, params) == ([("A", "B")], [])


def test_a_steps_new_edges_share_one_record_and_each_is_replaced_or_dropped_alone():
    m, events = ingest_transaction(MindMap(), txn(["A", "B", "C", "D"]), NO_DECAY)
    born = m.edges[("A", "B")]
    assert born == (0.25, 1) and all(m.edges[pair] is born for pair in events.edges_created)
    others = [pair for pair in events.edges_created if pair != ("A", "B")]
    # Reinforcing one shared pair replaces its record alone.
    m, events = ingest_transaction(m, txn(["A", "B"]), NO_DECAY)
    assert events.edges_reinforced == [("A", "B")]
    w, stamp = m.edges[("A", "B")]
    assert w > 0.25 and stamp == 2
    assert born == (0.25, 1) and all(m.edges[pair] is born for pair in others)
    # Forgetting one drops its key alone.
    others.remove(("C", "D"))
    assert prune_forgotten(m, [("C", "D")], [], 0.0) == ([("C", "D")], [])
    assert ("C", "D") not in m.edges and m.degree == Counter(A=3, B=3, C=2, D=2)
    assert type(m.degree) is dict
    assert born == (0.25, 1) and all(m.edges[pair] is born for pair in others)


def test_a_step_writes_its_new_pairs_once_in_combinations_order():
    # B-C and A-D exist; the step on ABCD reinforces them and creates the
    # other four, which go in after them in the loop's order, as one
    # `dict.update` of the new pairs would put them.
    m, _ = ingest_transaction(MindMap(), txn(["B", "C"]), NO_DECAY)
    m, _ = ingest_transaction(m, txn(["A", "D"]), NO_DECAY)
    old = dict(m.edges)
    m, events = ingest_transaction(m, txn(["A", "B", "C", "D"]), NO_DECAY)
    pairs = list(combinations("ABCD", 2))
    assert events.edges_reinforced == [("A", "D"), ("B", "C")]
    assert events.edges_created == [p for p in pairs if p not in old]
    assert list(m.edges) == list(old) + events.edges_created
    # Only the created pairs hold the step's one birth record.
    born = m.edges[("A", "B")]
    assert born == (0.25, 3)
    assert [p for p, edge in m.edges.items() if edge is born] == events.edges_created
    assert all(m.edges[p] != old[p] and m.edges[p][1] == 3 for p in old)


def reads_of(m: MindMap) -> list:
    """Make `m` log the label of each cell whose activation is read."""
    read, label_of = [], {id(cell): label for label, cell in m.cells.items()}

    def activation_of(cell: Cell) -> float:
        read.append(label_of[id(cell)])
        return MindMap.activation_of(m, cell)

    m.activation_of = activation_of
    return read


def test_prune_forgotten():
    # Each edge and cell given was found below the floor already; only the
    # ends of the dropped edges have their activation read.
    pair = ("A", "B")
    m, _ = ingest_transaction(MindMap(), txn(["A", "B"]), NO_DECAY)
    read = reads_of(m)
    assert prune_forgotten(m, [], [], 0.01) == ([], [])

    m.edges[pair] = (0.005, m.edges[pair][1])
    dead_edges, dead_cells = prune_forgotten(m, [pair], [], 0.01)
    assert dead_edges == [pair] and not dead_cells
    # activations are still high, so the now-isolated cells survive
    assert sorted(m.cells) == ["A", "B"]
    assert not m.degree
    assert sorted(read) == ["A", "B"]

    m2, _ = ingest_transaction(MindMap(), txn(["A", "B"]), NO_DECAY)
    m2.cells["A"] = (0.001, *m2.cells["A"][1:])
    _, dead = prune_forgotten(m2, [], ["A"], 0.01)
    assert "A" in m2.cells and not dead  # the surviving edge pins the cell

    # A quiet end of a dropped edge goes with it; a given cell is not read.
    m3, _ = ingest_transaction(MindMap(), txn(["A", "B"]), NO_DECAY)
    m3, _ = ingest_transaction(m3, txn(["B", "C"]), NO_DECAY)
    for label in "AC":
        m3.cells[label] = (0.001, *m3.cells[label][1:])
    read = reads_of(m3)
    dead = prune_forgotten(m3, [("B", "C"), ("A", "B")], ["C"], 0.01)
    assert dead == ([("A", "B"), ("B", "C")], ["A", "C"])
    assert sorted(m3.cells) == ["B"] and sorted(read) == ["A", "B"]


# Forgetting decides only the candidates of the step: each test below pins
# one kind of candidate, which no other rule would catch.


def test_edge_born_below_epsilon_is_forgotten_in_its_creation_step():
    params = EngineParams(epsilon=0.3, theta_w=0.5)
    m, events = ingest_transaction(MindMap(), txn(["A", "B", "C", "D"]), params)
    pairs = list(combinations("ABCD", 2))  # weight 1/4 < epsilon
    assert events.edges_created == pairs
    assert events.edges_forgotten == pairs
    assert not m.edges and not m.degree
    assert sorted(m.cells) == list("ABCD")  # boosted to 0.75, above the floor


def test_quiet_pinned_cell_goes_in_the_step_its_last_edge_goes():
    params = EngineParams(beta_w=0.3, beta_a=0.0, epsilon=0.3, theta_w=0.5)
    m, _ = ingest_transaction(MindMap(), txn(["A", "B"]), params)
    m, _ = ingest_transaction(m, txn(["A", "C"]), params)  # A-B decays to 0.35
    m.cells["A"] = (0.1, *m.cells["A"][1:])  # quiet, pinned by A-B and A-C; never decays
    m, events = ingest_transaction(m, txn(["C", "E"]), params)
    assert events.edges_forgotten == [("A", "B")]  # 0.245; A-C is 0.35
    assert events.cells_forgotten == [] and "A" in m.cells
    m, events = ingest_transaction(m, txn(["E"]), params)
    assert events.edges_forgotten == [("A", "C")]
    assert events.cells_forgotten == ["A"]
    assert sorted(m.cells) == ["B", "C", "E"]


def test_touched_cell_still_below_epsilon_is_forgotten():
    params = EngineParams(lam=0.1, beta_a=0.0, epsilon=0.6, theta_w=0.7)
    m, events = ingest_transaction(MindMap(), txn(["A"]), params)
    # boosted from 0.5 to 0.55 < epsilon, with no edge to pin it
    assert events.cells_created == ["A"] and events.cells_forgotten == ["A"]
    assert not m.cells


def test_edge_given_to_the_constructor_pins_its_cells():
    # The first step files the given records in the wheel: A and Q both
    # decay below the floor in it, and only the isolated Q goes.
    cells = {"A": (0.0101, 0, 0), "B": (0.5, 0, 0), "Q": (0.0101, 0, 0)}
    m = MindMap(cells, {("A", "B"): (0.5, 0)})
    m, events = ingest_transaction(m, txn(["C"]), EngineParams())
    assert m.get_activation("A") < 0.01  # decayed below the floor
    assert events.cells_forgotten == ["Q"] and "A" in m.cells
    check_invariants(m)


def test_the_edge_count_waits_for_the_first_step_that_forgets():
    # Only forgetting reads `degree`: a stream that never reaches the floor
    # never counts it, and the first step with something to forget counts it
    # once from the edges it holds, its own new ones included.
    m = MindMap()
    for t in random_transactions(random.Random(3), "abcdefgh", 60, max_size=6):
        m, events = ingest_transaction(m, t, NO_DECAY)
        assert m.degree is None and not events.edges_forgotten
    forgets = EngineParams(beta_w=0.0, beta_a=0.0, epsilon=0.3, theta_w=0.5)
    m, events = ingest_transaction(m, txn(["a", "p", "q", "r"]), forgets)  # born at 1/4
    assert events.edges_forgotten == sorted(combinations("apqr", 2))
    assert m.degree == Counter(label for pair in m.edges for label in pair)
    assert type(m.degree) is dict
    assert "p" not in m.degree and m.degree["a"] == 7  # a's edges to b-h stay
    check_invariants(m)


def test_the_steps_state_is_held_in_exact_builtins():
    # A subclass such as `Counter` defines methods in Python that slow every
    # store to it, so each container the step writes is a dict, set or list
    # exactly, from the first step to the last, through decay and forgetting.
    stream = random_transactions(random.Random(5), "abcdefghijkl", 400, max_size=6)
    for theta_a in (0.0, 0.6):
        engine = Engine(EngineParams(beta_w=0.05, beta_a=0.05, epsilon=0.05, theta_a=theta_a))
        engine.register_query("a", "b", horizon=50)
        forgotten = 0
        for t in stream:
            forgotten += len(engine.ingest(t).edges_forgotten)
            for owner in (engine, engine.mmap):
                for name, value in vars(owner).items():
                    if isinstance(value, (dict, set, list)):
                        assert type(value) in (dict, set, list), (name, type(value))
        assert forgotten and type(engine.mmap.degree) is dict
        assert all(type(v) is set for v in engine._adj.values())
        assert all(type(v) is list for v in engine.mmap.wheel.values())
        assert all(type(v) is list for v in engine._wheel.values())


def test_skeleton_edge_decaying_below_epsilon_leaves_skeleton_and_map():
    params = EngineParams(beta_w=0.9, beta_a=0.0, epsilon=0.1, theta_w=0.5, promote_after=1)
    engine = Engine(params)
    engine.ingest(txn(["A", "B"]))  # weight 0.5 == theta_w
    assert list(engine.stm) == [("A", "B")]
    events = engine.ingest(txn(["C"]))  # 0.5 * 0.1 < epsilon in one step
    assert events.edges_forgotten == [("A", "B")]
    assert not engine.mmap.edges and not engine.stm and not engine._adj
    assert engine.event_lines[-1] == "2 pattern-closed A|B"


@pytest.mark.parametrize("theta_w", [0.5, math.nextafter(0.5, 1.0)])
def test_an_edge_born_at_theta_w_joins_the_skeleton_in_its_birth_step(theta_w):
    # Two distinct items: the new edge is stored at exactly 1/2.
    engine = Engine(EngineParams(theta_w=theta_w, promote_after=1))
    events = engine.ingest(txn(["A", "B"]))
    assert events.edges_created == [("A", "B")] and events.edges_reinforced == []
    assert engine.mmap.edges[("A", "B")][0] == 0.5
    born_heavy = theta_w == 0.5
    joined = {("A", "B")} if born_heavy else set()
    assert heavy_pairs(engine) == joined and not engine._dark
    assert set(engine.stm) == joined
    promoted = [line for line in engine.event_lines if " pattern-" in line]
    assert promoted == (["1 pattern-promoted A|B"] if born_heavy else [])
    # A reinforced pair is read from the step's list: A-B rises past either.
    events = engine.ingest(txn(["A", "B", "C"]))
    assert events.edges_created == [("A", "C"), ("B", "C")]
    assert events.edges_reinforced == [("A", "B")]
    assert heavy_pairs(engine) == {("A", "B")} and not engine._dark
    assert set(engine.stm) == {("A", "B")}
    promoted = [line for line in engine.event_lines if " pattern-" in line]
    assert promoted == ["1 pattern-promoted A|B" if born_heavy else "2 pattern-promoted A|B"]


class WalkCountingDict(dict):
    """A dict that counts the calls that walk all of it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()

    def keys(self):
        self.walks += 1
        return super().keys()

    def values(self):
        self.walks += 1
        return super().values()

    def items(self):
        self.walks += 1
        return super().items()


def assert_steps_never_walk_the_map(params):
    engine = Engine(params)
    rng = random.Random(9)
    alphabet = [f"i{k}" for k in range(60)]
    while len(engine.mmap.edges) < 1000:
        engine.ingest(txn(rng.sample(alphabet, 8)))
    engine.mmap.edges = WalkCountingDict(engine.mmap.edges)
    engine.mmap.cells = WalkCountingDict(engine.mmap.cells)
    stream = [txn(rng.sample(alphabet, 8)) for _ in range(20)]
    stream += [txn(["new1", "new2", "i0"]), txn(["new3"]), txn([])]
    for t in stream:
        engine.ingest(t)
    assert engine.stm  # the skeleton was read: it is not empty
    assert engine.mmap.edges.walks == 0
    assert engine.mmap.cells.walks == 0
    return engine


def test_no_decay_step_never_walks_the_map():
    engine = assert_steps_never_walk_the_map(
        EngineParams(beta_w=0.0, beta_a=0.0, epsilon=0.01, promote_after=1)
    )
    assert not engine.mmap.wheel  # nothing decays, so nothing is filed


def test_decay_step_never_walks_the_map():
    # The step reads only what it touches and what the wheel has due.
    engine = assert_steps_never_walk_the_map(EngineParams(theta_w=0.2, promote_after=1))
    assert engine.mmap.wheel


class NoWalkDict(dict):
    """A dict that fails any call that walks all of it."""

    def walk(self, *args):
        raise AssertionError("the step walked a skeleton set")

    __iter__ = keys = values = items = walk


def heavy_pairs(engine: Engine) -> set:
    """The pairs linked in the engine's heavy adjacency, each once; read
    with the plain dict's walk, which a NoWalkDict does not override."""
    return {(a, b) for a, others in dict.items(engine._adj) for b in others if a < b}


@pytest.mark.parametrize("theta_a", [0.0, 0.6])
def test_step_never_walks_the_skeleton_sets(theta_a):
    # 1,035 heavy pairs that do not decay (beta_w = 0, so none is filed); the
    # step reads its touched pairs and its due crossings, not those pairs.
    params = EngineParams(beta_w=0.0, beta_a=0.1, epsilon=0.01, theta_w=0.02, theta_a=theta_a)
    engine = Engine(params)
    cells = {f"i{k}" for k in range(46)}
    engine.ingest(txn(sorted(cells)))  # every pair at 1/46
    assert len(heavy_pairs(engine)) == 1035 and set(engine.stm) == {tuple(sorted(cells))}
    engine._adj = NoWalkDict(engine._adj)
    for _ in range(6):  # with theta_a > 0, every i cell goes dark, and its pairs stay heavy
        engine.ingest(txn(["x", "y"]))
    assert engine._dark == (cells if theta_a else set())
    engine.ingest(txn(["i0", "i1", "x"]))
    heavy = heavy_pairs(engine)
    assert len(heavy) == 1038
    kept = {p for p in heavy if p[0] not in engine._dark and p[1] not in engine._dark}
    assert kept == ({("x", "y"), ("i0", "i1"), ("i0", "x"), ("i1", "x")} if theta_a else heavy)
    assert set(engine.stm) == {tuple(sorted({x for p in kept for x in p}))}


def test_replay_is_deterministic():
    rng = random.Random(11)
    alphabet = [f"i{k}" for k in range(10)]
    stream = random_transactions(rng, alphabet, 200)
    a = replay(stream)
    b = replay(stream)
    assert render_snapshot(a.state) == render_snapshot(b.state)


def test_edge_set_permutation_invariant_without_decay():
    rng = random.Random(3)
    alphabet = [f"i{k}" for k in range(8)]
    stream = random_transactions(rng, alphabet, 40)
    baseline = set(replay(stream, NO_DECAY).mmap.edges)
    expected = set()
    for t in stream:
        for a, b in combinations(sorted(t.items), 2):
            expected.add((a, b))
    assert baseline == expected
    for seed in range(5):
        shuffled = stream[:]
        random.Random(seed).shuffle(shuffled)
        assert set(replay(shuffled, NO_DECAY).mmap.edges) == baseline


def test_weights_nondecreasing_without_decay():
    rng = random.Random(5)
    alphabet = [f"i{k}" for k in range(10)]
    m = MindMap()
    previous = {}
    for t in random_transactions(rng, alphabet, 300):
        m, _ = ingest_transaction(m, t, NO_DECAY)
        for pair, (w, _) in m.edges.items():
            assert 0.0 <= w <= 1.0
            if pair in previous:
                assert w >= previous[pair]
        for a, _, _ in m.cells.values():
            assert 0.0 <= a <= 1.0
        previous = {p: w for p, (w, _) in m.edges.items()}


def test_more_cooccurrence_means_heavier_edge():
    # P = (x, y) co-occurs three times, Q = (x, z) once; same size, same birth
    stream = [txn(["x", "y", "z"]), txn(["x", "y"]), txn(["x", "y"])]
    engine = replay(stream, NO_DECAY)
    assert engine.mmap.get_weight("x", "y") > engine.mmap.get_weight("x", "z")


@settings(max_examples=25, deadline=None)
@given(st.lists(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=4), max_size=12))
def test_ranges_closed_under_any_stream(item_lists):
    m = MindMap()
    for items in item_lists:
        m, _ = ingest_transaction(m, txn(items), EngineParams())
        check_invariants(m)


# Forward decay: a record stores its value as of its stamp and is read at the
# map's step. The wheel holds one entry per record at or above the floor,
# filed when the record rises to it, at the first step its read is below the
# floor. An entry that comes due with its record not stamped since has
# crossed; one stamped since is read, and filed again if it is not below.


def test_a_touch_reads_the_value_before_this_steps_decay():
    params = EngineParams(lam=0.5, beta_a=0.05)
    m, _ = ingest_transaction(MindMap(), txn(["A"]), params)  # 0.75 at step 1
    m, _ = ingest_transaction(m, txn([]), params)
    m, _ = ingest_transaction(m, txn(["A"]), params)
    # Decayed in step 2 only; step 3's own decay skips what it touches.
    assert m.cells["A"][0] == activate_cell(0.75 * 0.95, 0.5)
    assert m.get_activation("A") == m.cells["A"][0]


def is_live(mmap: MindMap, key, stamp: int) -> bool:
    """Whether a wheel entry is its record's: the record is in the map and,
    for a cell, was not created after the entry was filed."""
    if isinstance(key, tuple):
        return key in mmap.edges
    cell = mmap.cells.get(key)
    return cell is not None and cell[1] <= stamp


def entries(wheel) -> dict:
    """Each entry in `wheel`, with the step it is due at."""
    return {entry: due for due, bucket in wheel.items() for entry in bucket}


def read_at(mmap: MindMap, record, step: int) -> float:
    """The value of `record` read at `step`, with the expression that
    `weight_of` / `activation_of` evaluate at the map's step."""
    if len(record) == 2:  # an edge: (weight, last_reinforced_at)
        (value, stamp), keep = record, mmap.keep_w
    else:
        (value, _, stamp), keep = record, mmap.keep_a
    return value * keep ** (step - max(stamp, mmap.origin))


class Checks(dict):
    """A wheel that records each check of a record: each entry it hands out
    whose record is live, keyed by the record's stamp now, so that the check
    of a record stamped again since its entry was filed counts as that
    record's. By kind, it keeps the reads at the step and at the step before
    of each record that comes due with the stamp it was filed with, and the
    number of entries for records stamped since."""

    def __init__(self, mmap: MindMap, floor_w: float, floor_a: float):
        super().__init__()
        self.mmap, self.floors, self.checks = mmap, {"edge": floor_w, "cell": floor_a}, Counter()
        self.due, self.restamped = {"edge": [], "cell": []}, Counter()

    def pop(self, step, default):
        bucket = super().pop(step, default)
        for key, since in bucket:
            if not is_live(self.mmap, key, since):
                continue
            if isinstance(key, tuple):
                kind, record = "edge", self.mmap.edges[key]
            else:
                kind, record = "cell", self.mmap.cells[key]
            now = record[-1]
            self.checks[key, now] += 1
            if now <= since:
                reads = read_at(self.mmap, record, step), read_at(self.mmap, record, step - 1)
                self.due[kind].append(reads)
            else:
                self.restamped[kind] += 1
        return bucket

    def assert_exact(self, kind: str) -> None:
        """Each record that came due with its stamp unchanged reads below
        its floor at that step and at or above it one step before; no record
        is checked more than twice at one stamp."""
        floor, due = self.floors[kind], self.due[kind]
        assert all(now < floor <= before for now, before in due), f"{kind} due off its crossing"
        assert max(self.checks.values()) <= 2, "checked more than twice at one stamp"


def exact_forgetting(beta: float, n_txns: int = 1500) -> Tuple[Checks, int]:
    """Run a random stream with `mmap.wheel` recording its checks, assert
    that the schedule is exact, and return the wheel and the number of
    records forgotten."""
    params = EngineParams(beta_w=beta, beta_a=beta, epsilon=0.05, theta_w=0.5)
    engine = Engine(params)
    wheel = engine.mmap.wheel = Checks(engine.mmap, params.epsilon, params.epsilon)
    forgotten = 0
    for t in random_transactions(random.Random(beta), [f"i{k}" for k in range(30)], n_txns):
        events = engine.ingest(t)
        forgotten += len(events.edges_forgotten) + len(events.cells_forgotten)
    wheel.assert_exact("edge")
    wheel.assert_exact("cell")
    return wheel, forgotten


@pytest.mark.parametrize("beta", [0.02, 0.1, 0.4])
def test_no_entry_is_first_checked_below_the_floor(beta):
    # Never late, never early: a record not stamped since its entry was
    # filed comes due at the first step it reads below the floor, so no
    # check finds it below at the step before. A record stamped again is
    # also checked when its old entry comes due, and then at most once more.
    wheel, forgotten = exact_forgetting(beta)
    assert len(wheel.due["edge"] + wheel.due["cell"]) > 1000 and forgotten > 200
    assert sum(wheel.restamped.values()) > 300


@settings(max_examples=300)
@given(
    st.floats(min_value=1e-12, max_value=0.999999),
    st.floats(min_value=1e-9, max_value=0.999),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=10**6),
)
def test_due_step_is_the_first_step_below_the_floor(beta, floor, share, since):
    # `value` anywhere in [floor, 1]; the log estimate is off by a step or
    # two at most before the read corrects it.
    value, keep = floor + share * (1.0 - floor), 1.0 - beta
    n = due_step(since, value, floor, keep) - since
    assert n >= 1 and value * keep**n < floor
    assert n == 1 or value * keep ** (n - 1) >= floor
    assert abs(n - (int(math.log(floor / value) / math.log(keep)) + 1)) <= 2


def least_step_below(value, floor, keep):
    n = 1
    while value * keep**n >= floor:
        n += 1
    return n


@pytest.mark.parametrize(
    "value, estimate, due",
    [
        (0.011062916170754488, 5, 6),  # value * 0.98**5 is exactly the floor: raised
        (0.021117144872580772, 38, 37),  # lowered
    ],
)
def test_due_step_corrects_a_log_estimate_on_a_knife_edge(value, estimate, due):
    keep, floor = 0.98, 0.01
    assert int(math.log(floor / value) / math.log(keep)) + 1 == estimate
    n = due_step(0, value, floor, keep)
    assert n == due == least_step_below(value, floor, keep)


def test_due_step_matches_a_search_at_every_power_of_keep():
    # `value` in (floor, 1] at floor / keep**k and its two neighbouring
    # floats, where the log estimate can be off by one either way; the sweep
    # meets both corrections.
    raised = lowered = 0
    for keep in (0.98, 0.9, 0.5):
        log_keep = math.log(keep)
        for floor in (0.01, 0.1, 1e-6):
            for k in range(1, 1000):
                if (at := floor / keep**k) > 1.0:
                    break
                for value in (math.nextafter(at, 0.0), at, math.nextafter(at, 2.0)):
                    n = due_step(0, value, floor, keep)
                    assert n == least_step_below(value, floor, keep), (keep, floor, value)
                    estimate = int(math.log(floor / value) / log_keep) + 1
                    raised += n > estimate
                    lowered += n < estimate
    assert raised > 0 and lowered > 0, (raised, lowered)


@pytest.mark.parametrize(
    "value, floor, keep",
    [
        (0.5, 0.01, 1.0),  # no decay: the value never falls
        (0.5, 0.0, 0.98),  # a floor of 0: no read is below it
        (0.005, 0.01, 0.98),  # below the floor already: it never crosses
    ],
)
def test_file_due_files_nothing_that_cannot_cross(value, floor, keep):
    wheel = {7: [("x", 1)]}
    file_due(wheel, [("a", "b"), "c"], 3, value, floor, keep)
    assert wheel == {7: [("x", 1)]}


@pytest.mark.parametrize(
    "value, floor, keep", [(0.5, 0.01, 0.98), (0.01, 0.01, 0.98), (1.0, 0.6, 0.5)]
)
def test_file_due_files_one_entry_per_key_at_due_step(value, floor, keep):
    # A value at the floor is filed too: it reads below it a step later.
    wheel = {7: [("x", 1)]}
    file_due(wheel, [("a", "b"), "c"], 3, value, floor, keep)
    due = due_step(3, value, floor, keep)
    assert due != 7 and wheel == {7: [("x", 1)], due: [(("a", "b"), 3), ("c", 3)]}
    file_due(wheel, ["d"], 3, value, floor, keep)
    assert wheel[due] == [(("a", "b"), 3), ("c", 3), ("d", 3)]


@pytest.mark.parametrize("shift", [-1, 1])
def test_filing_a_step_off_fails_the_exactness_check(monkeypatch, shift):
    # The exactness check catches a schedule one step early (a record taken
    # as crossed while above the floor) or one step late (one below the
    # floor at the step before it comes due).
    exact = dynamics.due_step
    monkeypatch.setattr(dynamics, "due_step", lambda *args: exact(*args) + shift)
    with pytest.raises(AssertionError, match="due off its crossing"):
        exact_forgetting(0.1, 300)


def test_an_untouched_due_entry_is_not_read():
    # A poisoned value would read as not below the floor and be filed again.
    params = EngineParams(beta_w=0.1, beta_a=0.0, epsilon=0.01)
    m, _ = ingest_transaction(MindMap(), txn(["A", "B"]), params)
    (due,) = m.wheel
    while m.step < due - 1:
        m, _ = ingest_transaction(m, txn([]), params)
    m.edges[("A", "B")] = (math.nan, m.edges[("A", "B")][1])
    m, events = ingest_transaction(m, txn([]), params)
    assert m.step == due and events.edges_forgotten == [("A", "B")] and not m.wheel


def first_below(value: float, floor: float, keep: float) -> int:
    """The least n >= 1 with value * keep**n below `floor`, by stepping."""
    return next(n for n in range(1, 10**4) if value * keep**n < floor)


def test_a_restamped_entry_is_filed_again_at_its_new_estimate():
    params = EngineParams(beta_w=0.1, beta_a=0.0, epsilon=0.01, theta_w=0.5)
    keep = 1.0 - params.beta_w
    m, _ = ingest_transaction(MindMap(), txn(["A", "B"]), params)
    first_due = 1 + first_below(0.5, 0.01, keep)  # the new edge's first step below
    assert due_step(1, 0.5, 0.01, keep) == first_due
    assert entries(m.wheel) == {(("A", "B"), 1): first_due}
    for _ in range(9):  # a touch files nothing: the entry stays as filed
        m, _ = ingest_transaction(m, txn(["A", "B"]), params)
        assert entries(m.wheel) == {(("A", "B"), 1): first_due}
    w, _ = m.edges[("A", "B")]
    crossing = 10 + first_below(w, 0.01, keep)
    assert due_step(10, w, 0.01, keep) == crossing
    assert first_due < crossing
    while m.step < crossing:
        m, events = ingest_transaction(m, txn([]), params)
        # One entry while the edge lives: the one filed at its birth until
        # it comes due, then one with the new stamp, due at the crossing.
        if m.step < first_due:
            assert entries(m.wheel) == {(("A", "B"), 1): first_due}, m.step
        elif m.step < crossing:
            assert entries(m.wheel) == {(("A", "B"), 10): crossing}, m.step
        assert events.edges_forgotten == ([("A", "B")] if m.step == crossing else [])
    assert not m.edges and not m.wheel


@pytest.mark.parametrize("theta_a", [0.0, 0.6])
@pytest.mark.parametrize("beta", [0.02, 0.1, 0.4])
def test_no_threshold_crossing_is_first_checked_below_its_threshold(beta, theta_a):
    # The engine's own wheel schedules the theta_w crossing of each heavy
    # pair and, when theta_a > 0, the theta_a crossing of each cell, exactly
    # as the map's wheel schedules forgetting.
    params = EngineParams(
        beta_w=beta, beta_a=beta, epsilon=0.05, theta_w=0.5, theta_a=theta_a, promote_after=1
    )
    engine = Engine(params)
    wheel = engine._wheel = Checks(engine.mmap, params.theta_w, params.theta_a)
    for t in random_transactions(random.Random(beta), [f"i{k}" for k in range(30)], 1500):
        engine.ingest(t)
    assert len(wheel.due["edge"]) > 300 and wheel.restamped["edge"] > 0
    wheel.assert_exact("edge")
    if theta_a:
        assert len(wheel.due["cell"]) > 500 and wheel.restamped["cell"] > 200
        wheel.assert_exact("cell")
    else:
        assert not wheel.due["cell"] and not wheel.restamped["cell"]


def test_a_restamped_crossing_entry_is_filed_again_at_its_new_estimate():
    params = EngineParams(beta_w=0.1, beta_a=0.1, epsilon=0.01, theta_w=0.4, theta_a=0.6)
    keep = 1.0 - params.beta_w
    engine = Engine(params)
    engine.ingest(txn(["A", "B"]))  # the pair is born heavy, and A and B are born lit
    keys = {"A", "B", ("A", "B")}
    assert {key for key, stamp in entries(engine._wheel)} == keys
    for _ in range(9):
        # A touch files nothing; an entry that comes due is filed again
        # with the record's stamp then, at the first step below from it.
        engine.ingest(txn(["A", "B"]))
        in_wheel = [key for bucket in engine._wheel.values() for key, _ in bucket]
        assert Counter(in_wheel) == Counter(keys), engine.step
        filed = entries(engine._wheel)
    w, a = engine.mmap.edges[("A", "B")][0], engine.mmap.cells["A"][0]
    assert engine.mmap.cells["B"][0] == a
    heavy_until = 10 + first_below(w, 0.4, keep) - 1
    light_until = 10 + first_below(a, 0.6, keep) - 1
    assert light_until < heavy_until
    assert filed[("A", 9)] <= light_until and filed[(("A", "B"), 4)] <= heavy_until
    new_due = {("A", "B"): heavy_until + 1, "A": light_until + 1, "B": light_until + 1}
    assert due_step(10, w, 0.4, keep) == new_due[("A", "B")]
    assert due_step(10, a, 0.6, keep) == new_due["A"]
    while engine.step <= heavy_until:
        engine.ingest(txn([]))
        step = engine.step
        # One entry per heavy pair and lit cell: the one filed by step 10
        # until it comes due, then one with stamp 10, due at its crossing.
        live = {("A", "B")} if step <= heavy_until else set()
        live |= {"A", "B"} if step <= light_until else set()
        expected = {}
        for (key, stamp), due in filed.items():
            if key in live and due > step:
                expected[key, stamp] = due
            elif key in live:
                expected[key, 10] = new_due[key]
        assert entries(engine._wheel) == expected, step
        # A-B stays heavy after its ends go dark, but leaves the skeleton then.
        assert heavy_pairs(engine) == ({("A", "B")} if step <= heavy_until else set()), step
        assert engine._dark == (set() if step <= light_until else {"A", "B"}), step
        assert set(engine.stm) == ({("A", "B")} if step <= light_until else set()), step
    assert not engine._wheel


def assert_one_entry_per_scheduled_record(engine: Engine) -> list:
    """`mmap.wheel` holds one entry per edge and per cell at or above
    epsilon; `_wheel` one per heavy pair and, when theta_a > 0, per lit cell,
    besides the entries left by cells forgotten while lit, which it returns."""
    m, params = engine.mmap, engine.params
    eps, theta_a = params.epsilon, params.theta_a
    assert all((m.activation_of(c) < theta_a) == (x in engine._dark) for x, c in m.cells.items())
    heavy = {p for p, c in m.edges.items() if m.weight_of(c) >= params.theta_w}
    assert heavy_pairs(engine) == heavy, m.step
    filed = Counter(key for bucket in m.wheel.values() for key, _ in bucket)
    scheduled = [*m.edges] + [x for x, c in m.cells.items() if m.activation_of(c) >= eps]
    assert filed == Counter(scheduled), m.step
    in_wheel = [entry for bucket in engine._wheel.values() for entry in bucket]
    filed = Counter(key for key, stamp in in_wheel if is_live(m, key, stamp))
    lit = [x for x in m.cells if x not in engine._dark] if theta_a else []
    assert filed == Counter([*heavy] + lit), m.step
    left = [(key, stamp) for key, stamp in in_wheel if not is_live(m, key, stamp)]
    assert all(isinstance(key, str) for key, _ in left), left  # no edge leaves one
    return left


@pytest.mark.parametrize("theta_a", [0.0, 0.6, 0.01])
@pytest.mark.parametrize("beta", [0.05, 0.3])
def test_each_scheduled_record_holds_one_wheel_entry(beta, theta_a):
    # Under decay, after every step. With theta_a below epsilon (0.01 <
    # 0.05) a cell can be forgotten while lit: its entry outlives it, and a
    # cell created again under its label files its own entry; the old one
    # is dropped when it comes due.
    params = EngineParams(beta_w=beta, beta_a=beta, epsilon=0.05, theta_w=0.5, theta_a=theta_a)
    engine = Engine(params)
    left_behind = recreated = 0
    for t in random_transactions(random.Random(f"{beta}"), [f"i{k}" for k in range(20)], 1500):
        engine.ingest(t)
        left = assert_one_entry_per_scheduled_record(engine)
        left_behind += len(left)
        recreated += sum(key in engine.mmap.cells for key, _ in left)
    if 0.0 < theta_a < params.epsilon:
        assert left_behind > 0 and recreated > 0, (left_behind, recreated)
    else:
        assert left_behind == 0


def test_an_entry_left_by_a_cell_forgotten_while_lit_is_dropped():
    # theta_a < epsilon: A is forgotten in step 3, still lit, and its entry
    # in the engine's wheel, due at step 8 (0.75 * 0.5**7 < 0.01, the first
    # read below), outlives it. A is created again in step 4 and files its
    # own entry; the old one must go when it comes due, or A would hold two
    # entries from then on.
    params = EngineParams(
        lam=0.5, beta_w=0.5, beta_a=0.5, epsilon=0.3, theta_w=0.5, theta_a=0.01
    )
    engine = Engine(params)

    def a_entries():
        return {e: due for e, due in entries(engine._wheel).items() if e[0] == "A"}

    engine.ingest(txn(["A", "B"]))
    assert a_entries() == {("A", 1): 8}
    engine.ingest(txn(["B"]))  # A-B falls below epsilon and goes
    events = engine.ingest(txn([]))
    assert events.cells_forgotten == ["A"]
    assert a_entries() == {("A", 1): 8}
    for _ in range(4):  # created again in step 4, and kept above epsilon
        engine.ingest(txn(["A"]))
        assert a_entries() == {("A", 1): 8, ("A", 4): 11}
    engine.ingest(txn([]))
    assert engine.step == 8 and engine.mmap.cells["A"][1] == 4
    assert a_entries() == {("A", 4): 11}
    assert_one_entry_per_scheduled_record(engine)
    while a_entries():
        engine.ingest(txn([]))
        assert_one_entry_per_scheduled_record(engine)


def test_wheel_and_engine_memory_stay_flat_on_a_long_stream():
    # A bounded alphabet under default decay: the map, both wheels, the dark
    # set, the heavy adjacency and the memories outside them reach a steady state.
    # The caller drains the event log each step, as a streaming consumer would.
    rng = random.Random(8)
    alphabet = [f"i{k}" for k in range(8)]
    stream = [txn(rng.sample(alphabet, rng.randint(0, 3))) for _ in range(10_000)]
    half = len(stream) // 2
    for theta_a in (0.0, 0.6):
        # The same stream through a throwaway engine first fills CPython's
        # free lists (the step's pair tuples), which tracemalloc would
        # otherwise count as growth when this test runs on its own.
        warm = Engine(EngineParams(theta_a=theta_a))
        for t in stream:
            warm.ingest(t)
            warm.event_lines.clear()
        del warm
        engine = Engine(EngineParams(theta_a=theta_a))
        peaks = {name: [0, 0] for name in ("wheel", "engine wheel", "dark", "dark-ended")}
        traced = []
        tracemalloc.start()
        try:
            for i, t in enumerate(stream):
                engine.ingest(t)
                engine.event_lines.clear()
                # The dark set and the heavy adjacency hold only what the map
                # holds, and no empty neighbour set is kept.
                heavy = heavy_pairs(engine)
                assert engine._dark <= engine.mmap.cells.keys(), i
                assert heavy <= engine.mmap.edges.keys() and all(engine._adj.values()), i
                sizes = {
                    "wheel": sum(map(len, engine.mmap.wheel.values())),
                    "engine wheel": sum(map(len, engine._wheel.values())),
                    "dark": len(engine._dark),
                    "dark-ended": sum(not engine._dark.isdisjoint(p) for p in heavy),
                }
                # Each wheel holds one entry per record it schedules, no more.
                m = engine.mmap
                above = sum(m.activation_of(cell) >= 0.01 for cell in m.cells.values())
                assert sizes["wheel"] == len(m.edges) + above, i
                lit = len(m.cells) - len(engine._dark) if theta_a else 0
                assert sizes["engine wheel"] == len(heavy) + lit, i
                for name, size in sizes.items():
                    peaks[name][i >= half] = max(peaks[name][i >= half], size)
                if i + 1 in (half, len(stream)):
                    traced.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        assert peaks["wheel"][1] > 0 and peaks["engine wheel"][1] > 0, peaks
        if theta_a:
            assert peaks["dark"][1] > 0 and peaks["dark-ended"][1] > 0, peaks
        for name in ("wheel", "engine wheel"):
            assert peaks[name][1] <= 1.1 * peaks[name][0], (name, peaks)
        assert traced[1] - traced[0] < 16 * 1024, traced
