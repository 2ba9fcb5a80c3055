import random
import tracemalloc
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from mindstream.dynamics import (
    NoPairsError,
    activate_cell,
    decay_pass,
    hebbian_update,
    ingest_transaction,
    initial_weight,
    prune_forgotten,
)
from mindstream.engine import Engine
from mindstream.model import Connection, EngineParams, ItemCell, MindMap
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
    assert m.cells["A"].activation == pytest.approx(0.875)
    assert m.cells["C"].activation == pytest.approx(0.75)
    assert m.cells["D"].activation == pytest.approx(0.75)
    assert m.step == 1
    assert events.cells_created == ["A", "C", "D"]
    assert len(events.edges_created) == 3


def test_second_transaction_joins_components():
    m1, _ = ingest_transaction(MindMap(), txn(["A", "A", "C", "D"]), EngineParams())
    c_before = m1.cells["C"].activation
    m2, _ = ingest_transaction(m1, txn(["B", "C", "E"]), EngineParams())
    assert sorted(m2.cells) == ["A", "B", "C", "D", "E"]
    assert m2.cells["C"].activation > c_before
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
    weights_before = {pair: conn.weight for pair, conn in m1.edges.items()}
    activations_before = {label: cell.activation for label, cell in m1.cells.items()}
    m2, _ = ingest_transaction(m1, txn([]), params)
    assert m2.step == step_before + 1
    assert sorted(m2.edges) == sorted(weights_before)
    for pair, conn in m2.edges.items():
        assert m2.weight_of(conn) == pytest.approx(weights_before[pair] * (1 - params.beta_w))
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

    same, conn = next_step(EngineParams(beta_w=0.0, beta_a=0.0))
    assert same.weight_of(conn) == conn.weight == 0.5
    assert not same.wheel  # nothing decays, so nothing is filed

    decayed, conn = next_step(EngineParams(beta_w=0.02))
    assert decayed.weight_of(conn) == pytest.approx(0.5 * 0.98)
    assert conn.weight == 0.5  # stored as of its stamp

    skipped, conn = next_step(EngineParams(beta_w=0.02))
    conn.last_reinforced_at = skipped.step
    assert skipped.weight_of(conn) == conn.weight == 0.5

    quiet, _ = next_step(EngineParams(beta_a=0.05))
    a, b = quiet.cells["A"].activation, quiet.cells["B"].activation
    quiet.cells["A"].last_activated_at = quiet.step
    assert quiet.activation_of(quiet.cells["A"]) == a
    assert quiet.activation_of(quiet.cells["B"]) == pytest.approx(b * 0.95)

    # An entry due in this step is decided on its value now: 0.5 * 0.1 < 0.1.
    params = EngineParams(beta_w=0.9, beta_a=0.0, epsilon=0.1)
    due, _ = ingest_transaction(MindMap(), txn(["A", "B"]), params)
    due.step += 1
    assert decay_pass(due, params) == ([("A", "B")], [])


def test_prune_forgotten():
    pair = ("A", "B")
    m, _ = ingest_transaction(MindMap(), txn(["A", "B"]), NO_DECAY)
    dead_edges, dead_cells = prune_forgotten(m, [pair], ["A", "B"], 0.0)
    assert not dead_edges and not dead_cells

    m.edges[pair].weight = 0.005
    dead_edges, dead_cells = prune_forgotten(m, [pair], [], 0.01)
    assert dead_edges == [pair]
    # activations are still high, so the now-isolated cells survive
    assert sorted(m.cells) == ["A", "B"]
    assert not m.degree

    m2, _ = ingest_transaction(MindMap(), txn(["A", "B"]), NO_DECAY)
    m2.cells["A"].activation = 0.001
    _, dead = prune_forgotten(m2, [], ["A"], 0.01)
    assert "A" in m2.cells and not dead  # the surviving edge pins the cell


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
    m.cells["A"].activation = 0.1  # quiet, pinned by A-B and A-C; never decays
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
    cells = {"A": ItemCell(0.0101, 0, 0), "B": ItemCell(0.5, 0, 0), "Q": ItemCell(0.0101, 0, 0)}
    m = MindMap(cells, {("A", "B"): Connection(0.5, 0)})
    m, events = ingest_transaction(m, txn(["C"]), EngineParams())
    assert m.get_activation("A") < 0.01  # decayed below the floor
    assert events.cells_forgotten == ["Q"] and "A" in m.cells
    check_invariants(m)


def test_skeleton_edge_decaying_below_epsilon_leaves_skeleton_and_map():
    params = EngineParams(beta_w=0.9, beta_a=0.0, epsilon=0.1, theta_w=0.5, promote_after=1)
    engine = Engine(params)
    engine.ingest(txn(["A", "B"]))  # weight 0.5 == theta_w
    assert list(engine.stm) == [("A", "B")]
    events = engine.ingest(txn(["C"]))  # 0.5 * 0.1 < epsilon in one step
    assert events.edges_forgotten == [("A", "B")]
    assert not engine.mmap.edges and not engine.stm and not engine._heavy
    assert engine.event_lines[-1] == "2 pattern-closed A|B"


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


@pytest.mark.parametrize("theta_a", [0.0, 0.6])
def test_step_never_walks_the_skeleton_sets(theta_a):
    # 1,035 heavy pairs that do not decay (beta_w = 0, so none is filed); the
    # step reads its touched pairs and its due crossings, not those pairs.
    params = EngineParams(beta_w=0.0, beta_a=0.1, epsilon=0.01, theta_w=0.02, theta_a=theta_a)
    engine = Engine(params)
    engine.ingest(txn([f"i{k}" for k in range(46)]))  # every pair at 1/46
    assert len(engine._heavy) == len(engine._kept) == 1035
    engine._heavy, engine._kept = NoWalkDict(engine._heavy), NoWalkDict(engine._kept)
    for _ in range(6):  # with theta_a > 0, every i cell goes dark and parks its pairs
        engine.ingest(txn(["x", "y"]))
    engine.ingest(txn(["i0", "i1", "x"]))
    kept = {("x", "y"), ("i0", "i1"), ("i0", "x"), ("i1", "x")}
    assert len(engine._heavy) == 1038
    assert dict.keys(engine._kept) == (kept if theta_a else dict.keys(engine._heavy))
    assert sum(map(len, engine._parked.values())) == (1038 - 4 if theta_a else 0)


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
        for pair, conn in m.edges.items():
            assert 0.0 <= conn.weight <= 1.0
            if pair in previous:
                assert conn.weight >= previous[pair]
        for cell in m.cells.values():
            assert 0.0 <= cell.activation <= 1.0
        previous = {p: c.weight for p, c in m.edges.items()}


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
# map's step; the wheel files each decaying record one step before a log
# estimate of its epsilon crossing and decides it there on its value then.


def test_a_touch_reads_the_value_before_this_steps_decay():
    params = EngineParams(lam=0.5, beta_a=0.05)
    m, _ = ingest_transaction(MindMap(), txn(["A"]), params)  # 0.75 at step 1
    m, _ = ingest_transaction(m, txn([]), params)
    m, _ = ingest_transaction(m, txn(["A"]), params)
    # Decayed in step 2 only; step 3's own decay skips what it touches.
    assert m.cells["A"].activation == activate_cell(0.75 * 0.95, 0.5)
    assert m.get_activation("A") == m.cells["A"].activation


class FirstChecks(dict):
    """A wheel that records, for each live entry it hands out, how often it
    was handed out and, by kind, its record's value the first time and how
    many live entries it handed out below the kind's floor."""

    def __init__(self, mmap: MindMap, floor_w: float, floor_a: float):
        super().__init__()
        self.mmap, self.floors, self.checks = mmap, {"edge": floor_w, "cell": floor_a}, Counter()
        self.first, self.crossed = {"edge": [], "cell": []}, Counter()

    def pop(self, step, default):
        entries = super().pop(step, default)
        for key, stamp in entries:
            if isinstance(key, tuple):
                kind, conn = "edge", self.mmap.edges.get(key)
                live = conn is not None and conn.last_reinforced_at == stamp
                value = live and self.mmap.weight_of(conn)
            else:
                kind, cell = "cell", self.mmap.cells.get(key)
                live = cell is not None and cell.last_activated_at == stamp
                value = live and self.mmap.activation_of(cell)
            if live:
                self.checks[key, stamp] += 1
                if self.checks[key, stamp] == 1:
                    self.first[kind].append(value)
                self.crossed[kind] += value < self.floors[kind]
        return entries


@pytest.mark.parametrize("beta", [0.02, 0.1, 0.4])
def test_no_entry_is_first_checked_below_the_floor(beta):
    # The estimate is never late, and at most one step early besides the
    # step it is filed early by: a live entry is handed out two or three times.
    params = EngineParams(beta_w=beta, beta_a=beta, epsilon=0.05, theta_w=0.5)
    engine = Engine(params)
    wheel = engine.mmap.wheel = FirstChecks(engine.mmap, params.epsilon, params.epsilon)
    forgotten = 0
    for t in random_transactions(random.Random(beta), [f"i{k}" for k in range(30)], 1500):
        events = engine.ingest(t)
        forgotten += len(events.edges_forgotten) + len(events.cells_forgotten)
    first = wheel.first["edge"] + wheel.first["cell"]
    assert len(first) > 1000 and forgotten > 200
    assert min(first) >= params.epsilon
    assert max(wheel.checks.values()) <= 3


def test_stale_wheel_entries_are_skipped():
    params = EngineParams(beta_w=0.1, beta_a=0.0, epsilon=0.01, theta_w=0.5)
    m = MindMap()
    for _ in range(10):  # each touch files an entry; the last one is live
        m, _ = ingest_transaction(m, txn(["A", "B"]), params)
    live = (("A", "B"), 10)
    filed = {entry: due for due, bucket in m.wheel.items() for entry in bucket}
    assert sorted(stamp for _, stamp in filed) == list(range(1, 11))
    w = m.edges[("A", "B")].weight
    crossing = 10 + next(n for n in range(1, 500) if w * 0.9**n < 0.01)
    while m.step < crossing:
        m, events = ingest_transaction(m, txn([]), params)
        # A stale entry leaves the wheel when it comes due; only the live one is filed again.
        left = {entry for entry, due in filed.items() if entry != live and due > m.step}
        in_wheel = [entry for bucket in m.wheel.values() for entry in bucket]
        assert sorted(in_wheel) == sorted(left | ({live} if m.edges else set())), m.step
        assert events.edges_forgotten == ([("A", "B")] if m.step == crossing else [])
    assert not m.edges and not m.wheel


@pytest.mark.parametrize("theta_a", [0.0, 0.6])
@pytest.mark.parametrize("beta", [0.02, 0.1, 0.4])
def test_no_threshold_crossing_is_first_checked_below_its_threshold(beta, theta_a):
    # The engine's own wheel schedules the theta_w crossing of each heavy
    # pair and, when theta_a > 0, the theta_a crossing of each cell.
    params = EngineParams(
        beta_w=beta, beta_a=beta, epsilon=0.05, theta_w=0.5, theta_a=theta_a, promote_after=1
    )
    engine = Engine(params)
    wheel = engine._wheel = FirstChecks(engine.mmap, params.theta_w, params.theta_a)
    for t in random_transactions(random.Random(beta), [f"i{k}" for k in range(30)], 1500):
        engine.ingest(t)
    assert len(wheel.first["edge"]) > 300 and wheel.crossed["edge"] > 300
    assert min(wheel.first["edge"]) >= params.theta_w
    if theta_a:
        assert len(wheel.first["cell"]) > 500 and wheel.crossed["cell"] > 500
        assert min(wheel.first["cell"]) >= params.theta_a
    else:
        assert not wheel.first["cell"]
    assert max(wheel.checks.values()) <= 3


def test_stale_crossing_entries_are_skipped():
    params = EngineParams(beta_w=0.1, beta_a=0.1, epsilon=0.01, theta_w=0.4, theta_a=0.6)
    engine = Engine(params)
    filed = {}  # each touch files one entry per key; the last ones are live
    for _ in range(10):
        engine.ingest(txn(["A", "B"]))
        for due, bucket in engine._wheel.items():
            filed.update((entry, due) for entry in bucket if entry[1] == engine.step)
    assert len(filed) == 30
    w, a = engine.mmap.edges[("A", "B")].weight, engine.mmap.cells["A"].activation
    assert engine.mmap.cells["B"].activation == a
    heavy_until = 10 + next(n for n in range(1, 99) if w * 0.9**n < 0.4) - 1
    light_until = 10 + next(n for n in range(1, 99) if a * 0.9**n < 0.6) - 1
    assert light_until < heavy_until
    while engine.step <= heavy_until:
        engine.ingest(txn([]))
        step = engine.step
        # A stale entry leaves the wheel when it comes due; a live one is
        # filed again until its record crosses.
        live = {(("A", "B"), 10)} if step <= heavy_until else set()
        live |= {("A", 10), ("B", 10)} if step <= light_until else set()
        left = {e for e, due in filed.items() if e[1] != 10 and due > step}
        in_wheel = [entry for bucket in engine._wheel.values() for entry in bucket]
        assert Counter(in_wheel) == Counter(left | live), step
        assert engine._heavy.keys() == ({("A", "B")} if step <= heavy_until else set()), step
        assert engine._dark == (set() if step <= light_until else {"A", "B"}), step
        assert engine._kept.keys() == ({("A", "B")} if step <= light_until else set()), step
        parked = [pair for pairs in engine._parked.values() for pair in pairs]
        assert parked == ([("A", "B")] if light_until < step <= heavy_until else []), step
    assert not engine._wheel


def test_wheel_and_engine_memory_stay_flat_on_a_long_stream():
    # A bounded alphabet under default decay: the map, both wheels, the dark
    # set, the parked map and the memories outside them reach a steady state.
    # The caller drains the event log each step, as a streaming consumer would.
    rng = random.Random(8)
    alphabet = [f"i{k}" for k in range(8)]
    stream = [txn(rng.sample(alphabet, rng.randint(0, 3))) for _ in range(10_000)]
    half = len(stream) // 2
    for theta_a in (0.0, 0.6):
        engine = Engine(EngineParams(theta_a=theta_a))
        peaks = {name: [0, 0] for name in ("wheel", "engine wheel", "dark", "parked")}
        traced = []
        tracemalloc.start()
        try:
            for i, t in enumerate(stream):
                engine.ingest(t)
                engine.event_lines.clear()
                # The dark set and the parked map hold only what the map holds,
                # and no empty parked set is kept.
                assert engine._dark <= engine.mmap.cells.keys(), i
                assert all(p <= engine._heavy.keys() for p in engine._parked.values()), i
                assert all(engine._parked.values()), i
                sizes = {
                    "wheel": sum(map(len, engine.mmap.wheel.values())),
                    "engine wheel": sum(map(len, engine._wheel.values())),
                    "dark": len(engine._dark),
                    "parked": sum(map(len, engine._parked.values())),
                }
                for name, size in sizes.items():
                    peaks[name][i >= half] = max(peaks[name][i >= half], size)
                if i + 1 in (half, len(stream)):
                    traced.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        assert 100 < peaks["wheel"][1] and 10 < peaks["engine wheel"][1], peaks
        if theta_a:
            assert peaks["dark"][1] > 0 and peaks["parked"][1] > 0, peaks
        for name in ("wheel", "engine wheel"):
            assert peaks[name][1] <= 1.1 * peaks[name][0], (name, peaks)
        assert traced[1] - traced[0] < 16 * 1024, traced
