import pytest

from mindstream.engine import Engine
from mindstream.memory import (
    LTMRecord,
    STMEntry,
    detect_patterns,
    ltm_update,
    stm_tick,
)
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
    stm = {bc: STMEntry(first_seen_step=1)}
    # an entry first seen at the step does not gain it
    assert stm_tick(stm, step=1, promote_after=2) == (stm, set())
    assert stm == {bc: STMEntry(1, 1)}
    stm, promos = stm_tick(stm, step=2, promote_after=2)
    assert promos == {bc}
    # a third consecutive step does not re-promote
    stm, promos = stm_tick(stm, step=3, promote_after=2)
    assert promos == set() and stm == {bc: STMEntry(1, 3)}


def pattern_lines(engine):
    return [line for line in engine.event_lines if " pattern-" in line]


def test_stm_absence_resets_survival():
    # A-B falls below theta_w for one step (0.69 * 0.5) and is reinforced back.
    params = EngineParams(beta_w=0.5, beta_a=0.0, epsilon=0.01, theta_w=0.4, promote_after=2)
    engine = Engine(params)
    ab = pattern("A", "B")
    for items in (["A", "B"], ["A", "B"]):
        engine.ingest(txn(items))
    assert engine.stm == {ab: STMEntry(1, 2)}
    engine.ingest(txn(["C"]))
    assert engine.stm == {} and engine.state.ltm[ab] == LTMRecord(ab, 2, 3)
    engine.ingest(txn(["A", "B"]))
    assert engine.stm == {ab: STMEntry(4, 1)}  # the run restarts
    engine.ingest(txn(["A", "B"]))
    assert engine.stm == {ab: STMEntry(4, 2)}
    assert engine.state.ltm[ab] == LTMRecord(ab, appeared_at=5, recurrence_count=2)
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
    assert engine.stm == {pattern("A", "B"): STMEntry(1, 2), pattern("C", "D"): STMEntry(2, 1)}
    engine.ingest(txn([]))
    assert engine.stm == {} and engine._dark == {"A", "B", "C", "D"}
    assert not engine.state.ltm and pattern_lines(engine) == []


def test_a_step_updates_the_stm_in_place():
    engine = Engine(EngineParams(beta_w=0.0, beta_a=0.0, epsilon=0.0, theta_w=0.4))
    abc = pattern("A", "B", "C")
    for items in (["A", "B"], ["B", "C"]):
        engine.ingest(txn(items))
    stm, entry = engine.stm, engine.stm[abc]
    # A-C joins two nodes of one component: it is searched again, found
    # unchanged, and keeps its run.
    engine.ingest(txn(["A", "C"]))
    engine.ingest(txn(["X", "Y"]))  # a new pattern beside it
    engine.ingest(txn([]))  # nothing moves
    assert engine.stm is stm and stm[abc] is entry
    assert stm == {abc: STMEntry(2, 4), pattern("X", "Y"): STMEntry(4, 2)}


def test_ltm_new_record_then_close_then_reopen():
    bce = pattern("B", "C", "E")
    ltm = ltm_update({}, {bce}, set(), step=4)
    assert len(ltm) == 1
    rec = ltm[bce]
    assert rec.signature == ("B", "C", "E")
    assert rec.appeared_at == 4 and rec.is_open and rec.recurrence_count == 1

    ltm = ltm_update(ltm, set(), {bce}, step=9)
    assert ltm[bce].disappeared_at == 9

    ltm = ltm_update(ltm, {bce}, set(), step=12)
    assert len(ltm) == 1
    assert ltm[bce].recurrence_count == 2
    assert ltm[bce].is_open and ltm[bce].appeared_at == 12


def test_ltm_open_record_stays_open_while_current():
    bce = pattern("B", "C", "E")
    ltm = ltm_update({}, {bce}, set(), step=4)
    ltm = ltm_update(ltm, set(), set(), step=5)
    assert ltm[bce].is_open


def test_ltm_lapse_closes_only_open_records():
    bce = pattern("B", "C", "E")
    ltm = ltm_update({}, {bce}, set(), step=4)
    ltm = ltm_update(ltm, set(), {bce}, step=5)
    # a closed record lapsing again, and a lapse with no record, change nothing
    ltm = ltm_update(ltm, set(), {bce, pattern("X", "Y")}, step=7)
    assert list(ltm) == [bce] and ltm[bce].disappeared_at == 5


def test_ltm_no_two_open_records_share_signature():
    bce = pattern("B", "C", "E")
    ltm = ltm_update({}, {bce}, set(), step=4)
    ltm = ltm_update(ltm, {bce}, set(), step=5)  # spurious double promotion
    opens = [r for r in ltm.values() if r.is_open]
    assert len(opens) == 1
    assert opens[0].appeared_at == 4 and opens[0].recurrence_count == 1


def test_query_ltm_filters():
    state = EngineState(MindMap(), EngineParams())
    assert run_static_query(state, ["ltm", "all"]) == ""
    state.ltm.update({
        ("B", "C"): LTMRecord(("B", "C"), 5, None, 2),
        ("A", "D"): LTMRecord(("A", "D"), 3, None, 1),
        ("A", "B"): LTMRecord(("A", "B"), 3, 7, 1),
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
    rec = ltm[ab]
    assert rec.appeared_at <= rec.disappeared_at


def test_worked_example_promotion_with_p2():
    # run with theta inside the gap so the triangle is the only pattern;
    # it needs one extra decay-only step to reach two consecutive steps
    probe = replay(worked_example_transactions())
    theta = triangle_gap_threshold(probe)
    engine = replay(
        worked_example_transactions() + [txn([])],
        EngineParams(theta_w=theta, promote_after=2),
    )
    open_records = [r for r in engine.state.ltm.values() if r.is_open]
    assert [r.signature for r in open_records] == [("B", "C", "E")]
    assert list(engine.ltm) == list(engine.state.ltm.values())
