import random

import pytest
from hypothesis import given, settings, strategies as st

from mindstream.apriori import (
    InconsistentInputError,
    apriori,
    apriori_levels,
    candidate_join,
    gen_rules,
    negative_border,
)

from helpers import brute_force_frequent, random_transactions, txn

FOUR_TXNS = [
    txn(["A", "C", "D"]),
    txn(["B", "C", "E"]),
    txn(["A", "B", "C", "E"]),
    txn(["B", "C", "E"]),
]

EXPECTED_MINSUP2 = {
    ("A",): 2,
    ("B",): 3,
    ("C",): 4,
    ("E",): 3,
    ("A", "C"): 2,
    ("B", "C"): 3,
    ("B", "E"): 3,
    ("C", "E"): 3,
    ("B", "C", "E"): 3,  # contained in transactions 2, 3, and 4
}


def test_four_transactions_minsup_2():
    assert apriori(FOUR_TXNS, 2) == EXPECTED_MINSUP2
    assert apriori(FOUR_TXNS, 2) == brute_force_frequent(FOUR_TXNS, 2)


def test_output_is_sorted_by_level_then_items():
    out = list(apriori(FOUR_TXNS, 2))
    assert out == sorted(out, key=lambda i: (len(i), i))


def test_minsup_above_max_support_is_empty():
    assert apriori(FOUR_TXNS, 5) == {}
    assert brute_force_frequent(FOUR_TXNS, 5) == {}


def test_empty_transaction_list():
    assert apriori([], 1) == {}


def test_minsup_must_be_positive():
    with pytest.raises(ValueError):
        apriori(FOUR_TXNS, 0)


def test_duplicates_count_once_for_support():
    txns = [txn(["A", "A", "B"]), txn(["A", "B"])]
    assert apriori(txns, 2) == {("A",): 2, ("B",): 2, ("A", "B"): 2}


def test_rule_confidences():
    frequent = apriori(FOUR_TXNS, 2)
    rules = {
        (r.antecedent, r.consequent): r.confidence
        for r in gen_rules(frequent, 0.0)
    }
    assert rules[(("B",), ("C",))] == pytest.approx(1.0)
    assert rules[(("C",), ("B",))] == pytest.approx(0.75)
    strict = {
        (r.antecedent, r.consequent) for r in gen_rules(frequent, 1.0)
    }
    assert (("B",), ("C",)) in strict
    assert (("C",), ("B",)) not in strict


def test_rule_confidences_in_unit_interval():
    for r in gen_rules(apriori(FOUR_TXNS, 1), 0.0):
        assert 0.0 < r.confidence <= 1.0
        assert not set(r.antecedent) & set(r.consequent)
        assert len(r.antecedent) >= 1 and len(r.consequent) >= 1


def test_gen_rules_rejects_missing_subset():
    broken = {("A", "B"): 2}  # singletons missing
    with pytest.raises(InconsistentInputError):
        gen_rules(broken, 0.0)


def test_negative_border_at_k2():
    levels = apriori_levels(FOUR_TXNS, 2)
    c2, f2 = levels[1]
    assert c2 == [
        ("A", "B"), ("A", "C"), ("A", "E"), ("B", "C"), ("B", "E"), ("C", "E")
    ]
    assert f2 == {("A", "C"): 2, ("B", "C"): 3, ("B", "E"): 3, ("C", "E"): 3}
    assert negative_border(c2, f2) == [("A", "B"), ("A", "E")]


def test_negative_border_edge_cases():
    cands = [("A", "B")]
    assert negative_border(cands, {("A", "B"): 3}) == []
    assert negative_border(cands, {}) == [("A", "B")]
    assert negative_border([], {}) == []


def test_candidate_join_prunes_infrequent_subsets():
    # {A,B,C} requires all three 2-subsets to be frequent
    assert candidate_join([("A", "B"), ("A", "C")]) == []
    assert candidate_join([("A", "B"), ("A", "C"), ("B", "C")]) == [("A", "B", "C")]


def test_downward_closure_and_antimonotone_support():
    frequent = apriori(FOUR_TXNS, 1)
    from itertools import combinations

    for items, support in frequent.items():
        for k in range(1, len(items)):
            for sub in combinations(items, k):
                assert sub in frequent
                assert frequent[sub] >= support


def test_randomized_cross_check_against_brute_force():
    rng = random.Random(42)
    for trial in range(200):
        n_items = rng.randint(1, 8)
        alphabet = [chr(ord("a") + k) for k in range(n_items)]
        txns = random_transactions(rng, alphabet, rng.randint(1, 30), max_size=n_items)
        minsup = rng.randint(1, 5)
        assert apriori(txns, minsup) == brute_force_frequent(txns, minsup), (
            f"mismatch in trial {trial}"
        )


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.sets(st.sampled_from("abcde"), min_size=1).map(sorted),
        min_size=1,
        max_size=15,
    ),
    st.integers(min_value=1, max_value=4),
)
def test_apriori_matches_oracle_property(baskets, minsup):
    txns = [txn(items) for items in baskets]
    assert apriori(txns, minsup) == brute_force_frequent(txns, minsup)
