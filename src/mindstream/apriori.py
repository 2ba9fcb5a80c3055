"""Static Apriori baseline: frequent itemsets, rules, negative border.

This is the desk-scale oracle the dynamic mind-map is checked against.
An itemset is its sorted tuple of labels, and a set of frequent itemsets
is a dict from itemset to support. Support is an absolute transaction
count; duplicate items within one transaction count once (set semantics).
Levelwise candidate generation joins F_{k-1} with itself on the
(k-2)-prefix and prunes candidates with any infrequent (k-1)-subset.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, Mapping, NamedTuple, Sequence, Tuple

from .model import Transaction, distinct_items

Items = Tuple[str, ...]


class InconsistentInputError(ValueError):
    """Rule generation needs every subset's support to be present."""


class StaticRule(NamedTuple):
    antecedent: Items
    consequent: Items
    support: int
    confidence: float


def candidate_join(frequent_prev: Sequence[Items]) -> List[Items]:
    """C_k from F_{k-1}, sorted: prefix join plus the subset prune."""
    prev = sorted(frequent_prev)
    prev_set = set(prev)
    candidates: List[Items] = []
    for i, p in enumerate(prev):
        for q in prev[i + 1 :]:
            if p[:-1] != q[:-1]:
                break
            cand = p + (q[-1],)
            if all(sub in prev_set for sub in combinations(cand, len(cand) - 1)):
                candidates.append(cand)
    return candidates


def apriori_levels(
    txns: Sequence[Transaction], minsup: int
) -> List[Tuple[List[Items], Dict[Items, int]]]:
    """Per-level (C_k, F_k) pairs: the sorted candidates, and the frequent
    ones with their supports in candidate order."""
    if minsup < 1:
        raise ValueError("minsup must be >= 1")
    txn_sets = [frozenset(t.items) for t in txns]
    item_counts = distinct_items(item for t in txn_sets for item in t)

    cands = [(item,) for item in sorted(item_counts)]
    fk = {c: item_counts[c[0]] for c in cands if item_counts[c[0]] >= minsup}
    levels = [(cands, fk)]
    while fk and (cands := candidate_join(list(fk))):
        fk = {c: n for c in cands if (n := sum(map(frozenset(c).issubset, txn_sets))) >= minsup}
        levels.append((cands, fk))
    return levels


def apriori(txns: Sequence[Transaction], minsup: int) -> Dict[Items, int]:
    """All frequent itemsets with their supports, by level and then by items."""
    return {s: supp for _, fk in apriori_levels(txns, minsup) for s, supp in fk.items()}


def negative_border(candidates: Sequence[Items], frequent_k: Mapping[Items, int]) -> List[Items]:
    """C_k - F_k: the candidates that failed the support threshold."""
    return [c for c in candidates if c not in frequent_k]


def gen_rules(frequent: Mapping[Items, int], minconf: float) -> List[StaticRule]:
    """Every antecedent => consequent split of every frequent set, in the
    order of `frequent`, whose confidence clears minconf. The input must be
    downward closed (all subsets present with supports)."""
    rules: List[StaticRule] = []
    for items, support in frequent.items():
        for r in range(1, len(items)):
            for ant in combinations(items, r):
                if ant not in frequent:
                    raise InconsistentInputError(
                        f"missing support for subset {ant} of {items}"
                    )
                confidence = support / frequent[ant]
                if confidence >= minconf:
                    cons = tuple(i for i in items if i not in ant)
                    rules.append(StaticRule(ant, cons, support, confidence))
    return rules
