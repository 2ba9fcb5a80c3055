import pytest

from mindstream.engine import Engine
from mindstream.memory import detect_patterns, ltm_update, stm_tick
from mindstream.model import EngineParams, MindMap
from mindstream.dynamics import ingest_transaction
from mindstream.queries import QueryUsageError, run_static_query
from mindstream.skeleton import extract_skeleton
from mindstream.snapshot import EngineState

from helpers import replay, triangle_gap_threshold, txn, worked_example_transactions

NO_DECAY = EngineParams(beta_w=0.0, beta_a=0.0, epsilon=0.0)


def pattern(*labels):
    return tuple(sorted(labels))


def test_detect_patterns_triangle():
    engine = replay(worked_example_transactions())
    theta = triangle_gap_threshold(engine)
    found = detect_patterns(extract_skeleton(engine.mmap, theta))
    assert found == {("B", "C", "E")}


def test_detect_patterns_empty_and_disjoint():
    assert detect_patterns(extract_skeleton(MindMap(), 0.0)) == set()
    m = MindMap()
    m, _ = ingest_transaction(m, txn(["A", "B"]), NO_DECAY)
    m, _ = ingest_transaction(m, txn(["C", "D"]), NO_DECAY)
    found = detect_patterns(extract_skeleton(m, 0.0))
    assert found == {("A", "B"), ("C", "D")}


def test_stm_promotes_at_exactly_p():
    bc = pattern("B", "C")
    stm = {bc: 1}  # first seen at step 1
    # an entry first seen at the step has run 1
    assert stm_tick(stm, step=1, promote_after=2) == (stm, set())
    stm, promos = stm_tick(stm, step=2, promote_after=2)
    assert promos == {bc}
    # a third consecutive step does not re-promote, and no entry is written
    stm, promos = stm_tick(stm, step=3, promote_after=2)
    assert promos == set() and stm == {bc: 1}


def pattern_lines(engine):
    return [line for line in engine.event_lines if " pattern-" in line]


def test_stm_absence_resets_survival():
    # A-B falls below theta_w for one step (0.69 * 0.5) and is reinforced back.
    params = EngineParams(beta_w=0.5, beta_a=0.0, epsilon=0.01, theta_w=0.4, promote_after=2)
    engine = Engine(params)
    ab = pattern("A", "B")
    for items in (["A", "B"], ["A", "B"]):
        engine.ingest(txn(items))
    assert engine.state.stm == {ab: (1, 2)}
    engine.ingest(txn(["C"]))
    assert engine.state.stm == {} and engine.state.ltm[ab] == (2, 3, 1)
    engine.ingest(txn(["A", "B"]))
    assert engine.state.stm == {ab: (4, 1)}  # the run restarts
    engine.ingest(txn(["A", "B"]))
    assert engine.state.stm == {ab: (4, 2)}
    assert engine.state.ltm[ab] == (5, None, 2)
    assert pattern_lines(engine) == [
        "2 pattern-promoted A|B",
        "3 pattern-closed A|B",
        "5 pattern-reopened A|B",
    ]


def test_stm_everything_lapses_on_empty_current():
    # A and B are boosted twice in step 1, C and D once in step 2: all four
    # are above theta_a after step 2, and all below it after step 3.
    params = EngineParams(
        beta_w=0.0, beta_a=0.1, epsilon=0.01, theta_w=0.4, theta_a=0.72, promote_after=3
    )
    engine = Engine(params)
    for items in (["A", "A", "B", "B"], ["C", "D"]):
        engine.ingest(txn(items))
    assert engine.state.stm == {pattern("A", "B"): (1, 2), pattern("C", "D"): (2, 1)}
    engine.ingest(txn([]))
    assert engine.state.stm == {} and engine._dark == {"A", "B", "C", "D"}
    assert not engine.state.ltm and pattern_lines(engine) == []


def test_a_step_updates_the_stm_in_place():
    engine = Engine(EngineParams(beta_w=0.0, beta_a=0.0, epsilon=0.0, theta_w=0.4))
    abc = pattern("A", "B", "C")
    for items in (["A", "B"], ["B", "C"]):
        engine.ingest(txn(items))
    stm = engine.stm
    # A-C joins two nodes of one component: it is searched again, found
    # unchanged, and keeps its run.
    engine.ingest(txn(["A", "C"]))
    engine.ingest(txn(["X", "Y"]))  # a new pattern beside it
    engine.ingest(txn([]))  # nothing moves
    assert engine.stm is stm
    assert engine.state.stm == {abc: (2, 4), pattern("X", "Y"): (4, 2)}


class CountingDict(dict):
    """A dict that counts the writes to keys it already holds."""

    rewrites = 0

    def __setitem__(self, key, value):
        self.rewrites += key in self
        super().__setitem__(key, value)


def test_a_step_writes_only_the_stm_births_and_lapses():
    # The stream of test_stm_absence_resets_survival: a promotion, a lapse
    # and a reopening, with A|B surviving over several steps in between.
    params = EngineParams(beta_w=0.5, beta_a=0.0, epsilon=0.01, theta_w=0.4, promote_after=2)
    engine = Engine(params)
    engine.stm = stm = CountingDict()
    for items in (["A", "B"], ["A", "B"], ["C"], ["A", "B"], ["A", "B"], ["A", "B"]):
        engine.ingest(txn(items))
    assert pattern_lines(engine) == [
        "2 pattern-promoted A|B",
        "3 pattern-closed A|B",
        "5 pattern-reopened A|B",
    ]
    assert engine.stm is stm and stm.rewrites == 0
    assert stm == {pattern("A", "B"): 4}


def test_ltm_new_record_then_close_then_reopen():
    bce = pattern("B", "C", "E")
    ltm = ltm_update({}, {bce}, set(), step=4)
    # (appeared_at, disappeared_at, recurrence_count)
    assert ltm == {bce: (4, None, 1)}

    ltm = ltm_update(ltm, set(), {bce}, step=9)
    assert ltm == {bce: (4, 9, 1)}

    ltm = ltm_update(ltm, {bce}, set(), step=12)
    assert ltm == {bce: (12, None, 2)}


def test_ltm_open_record_stays_open_while_current():
    bce = pattern("B", "C", "E")
    ltm = ltm_update({}, {bce}, set(), step=4)
    ltm = ltm_update(ltm, set(), set(), step=5)
    assert ltm == {bce: (4, None, 1)}


def test_ltm_lapse_closes_only_open_records():
    bce = pattern("B", "C", "E")
    ltm = ltm_update({}, {bce}, set(), step=4)
    ltm = ltm_update(ltm, set(), {bce}, step=5)
    # a closed record lapsing again, and a lapse with no record, change nothing
    ltm = ltm_update(ltm, set(), {bce, pattern("X", "Y")}, step=7)
    assert ltm == {bce: (4, 5, 1)}


def test_ltm_no_two_open_records_share_signature():
    bce = pattern("B", "C", "E")
    ltm = ltm_update({}, {bce}, set(), step=4)
    ltm = ltm_update(ltm, {bce}, set(), step=5)  # spurious double promotion
    assert ltm == {bce: (4, None, 1)}


def test_query_ltm_filters():
    state = EngineState(MindMap(), EngineParams())
    assert run_static_query(state, ["ltm", "all"]) == ""
    state.ltm.update({
        ("B", "C"): (5, None, 2),
        ("A", "D"): (3, None, 1),
        ("A", "B"): (3, 7, 1),
    })

    def signatures(which):
        return [line.split()[0] for line in run_static_query(state, ["ltm", which]).splitlines()]

    # Records that appeared at the same step are ordered by signature.
    assert signatures("open") == ["A|D", "B|C"]
    assert signatures("closed") == ["A|B"]
    assert signatures("all") == ["A|B", "A|D", "B|C"]
    with pytest.raises(QueryUsageError):
        run_static_query(state, ["ltm", "bogus"])


def test_closed_record_stamps_are_ordered():
    ab = pattern("A", "B")
    ltm = ltm_update({}, {ab}, set(), step=2)
    ltm = ltm_update(ltm, set(), {ab}, step=6)
    appeared, gone, _ = ltm[ab]
    assert appeared <= gone


def test_worked_example_promotion_with_p2():
    # run with theta inside the gap so the triangle is the only pattern;
    # it needs one extra decay-only step to reach two consecutive steps
    probe = replay(worked_example_transactions())
    theta = triangle_gap_threshold(probe)
    engine = replay(
        worked_example_transactions() + [txn([])],
        EngineParams(theta_w=theta, promote_after=2),
    )
    opens = [sig for sig, (_, gone, _) in engine.state.ltm.items() if gone is None]
    assert opens == [("B", "C", "E")]
    assert list(engine.ltm) == list(engine.state.ltm.values())
