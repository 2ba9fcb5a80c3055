"""Static Apriori baseline: frequent itemsets, rules, negative border.

This is the desk-scale oracle the dynamic mind-map is checked against.
Support is an absolute transaction count; duplicate items within one
transaction count once (set semantics). Levelwise candidate generation
joins F_{k-1} with itself on the (k-2)-prefix and prunes candidates with
any infrequent (k-1)-subset.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, List, Sequence, Tuple

from .model import Transaction, distinct_items

Items = Tuple[str, ...]


class InconsistentInputError(ValueError):
    """Rule generation needs every subset's support to be present."""


@dataclass(frozen=True)
class ItemSet:
    items: Items  # sorted, unique, non-empty
    support: int

    def __post_init__(self) -> None:
        if not self.items:
            raise ValueError("itemset must be non-empty")
        if tuple(sorted(set(self.items))) != self.items:
            raise ValueError(f"items must be sorted and unique: {self.items}")
        if self.support < 0:
            raise ValueError("support must be >= 0")


@dataclass(frozen=True)
class CandidateSet:
    level: int
    sets: Tuple[Items, ...]

    def __post_init__(self) -> None:
        for s in self.sets:
            if len(s) != self.level:
                raise ValueError(f"candidate {s} not at level {self.level}")


@dataclass(frozen=True)
class StaticRule:
    antecedent: Items
    consequent: Items
    support: int
    confidence: float


def _txn_itemsets(txns: Iterable[Transaction]) -> List[frozenset]:
    return [frozenset(t.items) for t in txns]


def _support(itemset: Items, txn_sets: Sequence[frozenset]) -> int:
    target = frozenset(itemset)
    return sum(1 for t in txn_sets if target <= t)


def candidate_join(frequent_prev: Sequence[Items]) -> List[Items]:
    """C_k from F_{k-1}: prefix join plus the subset prune."""
    prev = sorted(frequent_prev)
    prev_set = set(prev)
    candidates: List[Items] = []
    for i, p in enumerate(prev):
        for q in prev[i + 1 :]:
            if p[:-1] != q[:-1]:
                break
            cand = p + (q[-1],)
            if all(
                tuple(sub) in prev_set for sub in combinations(cand, len(cand) - 1)
            ):
                candidates.append(cand)
    return candidates


def apriori_levels(
    txns: Sequence[Transaction], minsup: int
) -> List[Tuple[CandidateSet, List[ItemSet]]]:
    """Per-level (C_k, F_k) pairs, for negative-border inspection."""
    if minsup < 1:
        raise ValueError("minsup must be >= 1")
    txn_sets = _txn_itemsets(txns)
    item_counts = distinct_items(item for t in txn_sets for item in t)

    c1 = tuple((item,) for item in sorted(item_counts))
    f1 = [
        ItemSet((item,), count)
        for item, count in sorted(item_counts.items())
        if count >= minsup
    ]
    levels = [(CandidateSet(1, c1), f1)]
    frequent_prev = [s.items for s in f1]
    k = 2
    while frequent_prev:
        cands = candidate_join(frequent_prev)
        if not cands:
            break
        fk = [
            ItemSet(c, supp)
            for c in cands
            if (supp := _support(c, txn_sets)) >= minsup
        ]
        levels.append((CandidateSet(k, tuple(cands)), fk))
        frequent_prev = [s.items for s in fk]
        k += 1
    return levels


def apriori(txns: Sequence[Transaction], minsup: int) -> List[ItemSet]:
    """All frequent itemsets, sorted by (level, lexicographic items)."""
    out: List[ItemSet] = []
    for _, fk in apriori_levels(txns, minsup):
        out.extend(sorted(fk, key=lambda s: s.items))
    return out


def negative_border(candidates: CandidateSet, frequent_k: Sequence[ItemSet]) -> List[ItemSet]:
    """C_k - F_k: candidates that failed the support threshold. A border
    set's support is not counted: it is given as 0."""
    for s in frequent_k:
        if len(s.items) != candidates.level:
            raise ValueError(
                f"level mismatch: frequent set {s.items} vs level {candidates.level}"
            )
    frequent_items = {s.items for s in frequent_k}
    border = [c for c in candidates.sets if c not in frequent_items]
    return [ItemSet(c, 0) for c in sorted(border)]


def gen_rules(frequent: Sequence[ItemSet], minconf: float) -> List[StaticRule]:
    """Every antecedent => consequent split of every frequent set of size
    >= 2 whose confidence clears minconf. The input must be downward
    closed (all subsets present with supports)."""
    support_of = {s.items: s.support for s in frequent}
    rules: List[StaticRule] = []
    for s in sorted(frequent, key=lambda s: (len(s.items), s.items)):
        if len(s.items) < 2:
            continue
        for r in range(1, len(s.items)):
            for ant in combinations(s.items, r):
                if ant not in support_of:
                    raise InconsistentInputError(
                        f"missing support for subset {ant} of {s.items}"
                    )
                confidence = s.support / support_of[ant]
                if confidence >= minconf:
                    cons = tuple(i for i in s.items if i not in ant)
                    rules.append(StaticRule(ant, cons, s.support, confidence))
    return rules
