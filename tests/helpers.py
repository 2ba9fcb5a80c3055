"""Shared test fixtures: the worked four-transaction example, random stream
generators, a brute-force frequent-itemset oracle, and random engine states."""

from __future__ import annotations

import random
from itertools import combinations
from typing import Dict, List, Sequence, Set, Tuple

from mindstream.engine import Engine
from mindstream.memory import LTMRecord, STMEntry
from mindstream.model import (
    Connection,
    EngineParams,
    ItemCell,
    MindMap,
    Transaction,
    distinct_items,
)
from mindstream.skeleton import Skeleton
from mindstream.snapshot import EngineState

WORKED_EXAMPLE = [
    ["A", "A", "C", "D"],
    ["B", "C", "E"],
    ["A", "B", "C", "E"],
    ["B", "C", "E"],
]


def txn(items: Sequence[str]) -> Transaction:
    return Transaction(None, distinct_items(items))


def worked_example_transactions() -> List[Transaction]:
    return [txn(items) for items in WORKED_EXAMPLE]


def worked_example_stream_text() -> str:
    lines = []
    for ref, items in enumerate(WORKED_EXAMPLE, start=1):
        for name in items:
            lines.append(f"2004-03-01;{ref};{name}")
    return "\n".join(lines) + "\n"


def replay(transactions, params: EngineParams = EngineParams()) -> Engine:
    engine = Engine(params)
    for t in transactions:
        engine.ingest(t)
    return engine


def skeleton_nodes(skel: Skeleton) -> Set[str]:
    """The nodes of `skel`: the ends of its edges."""
    return {label for pair, _ in skel.edges for label in pair}


def triangle_gap_threshold(engine: Engine) -> float:
    """Midpoint of the gap between the B-C-E triangle and everything else."""
    triangle = {("B", "C"), ("B", "E"), ("C", "E")}
    lo = min(c.weight for p, c in engine.mmap.edges.items() if p in triangle)
    hi = max(c.weight for p, c in engine.mmap.edges.items() if p not in triangle)
    assert hi < lo, "no weight gap around the triangle"
    return (lo + hi) / 2.0


def random_transactions(
    rng: random.Random, alphabet: Sequence[str], n_txns: int, max_size: int = 4
) -> List[Transaction]:
    txns = []
    for _ in range(n_txns):
        size = rng.randint(1, min(max_size, len(alphabet)))
        items = rng.sample(list(alphabet), size)
        txns.append(txn(items))
    return txns


def brute_force_frequent(
    txns: Sequence[Transaction], minsup: int
) -> Dict[Tuple[str, ...], int]:
    """Independent oracle: count support of every subset by enumeration."""
    txn_sets = [frozenset(t.items) for t in txns]
    universe = sorted(set().union(*txn_sets)) if txn_sets else []
    out: Dict[Tuple[str, ...], int] = {}
    for k in range(1, len(universe) + 1):
        for subset in combinations(universe, k):
            target = frozenset(subset)
            support = sum(1 for t in txn_sets if target <= t)
            if support >= minsup:
                out[subset] = support
    return out


def random_label(rng: random.Random) -> str:
    chars = "abcXYZ0 |\"\\;"
    while True:
        label = "".join(rng.choice(chars) for _ in range(rng.randint(1, 6)))
        if label.strip():
            return label


def random_engine_state(rng: random.Random) -> EngineState:
    step = rng.randint(0, 50)
    labels = sorted({random_label(rng) for _ in range(rng.randint(0, 8))})
    cells = {}
    for label in labels:
        created = rng.randint(0, step) if step else 0
        cells[label] = ItemCell(
            rng.random(), created, rng.randint(created, step) if step else 0
        )
    edges = {}
    for a, b in combinations(labels, 2):
        if rng.random() < 0.5:
            edges[(a, b)] = Connection(rng.random(), rng.randint(0, step))
    mmap = MindMap(cells=cells, edges=edges, step=step)
    params = EngineParams(
        eta=rng.uniform(0.1, 1.0),
        lam=rng.uniform(0.1, 1.0),
        beta_w=rng.uniform(0.0, 0.5),
        beta_a=rng.uniform(0.0, 0.5),
        epsilon=rng.uniform(0.0, 0.1),
        theta_w=rng.uniform(0.2, 1.0),
        theta_a=rng.uniform(0.0, 1.0),
        promote_after=rng.randint(1, 5),
    )
    stm = {}
    ltm = {}
    if len(labels) >= 2:
        for _ in range(rng.randint(0, 3)):
            sig = tuple(sorted(rng.sample(labels, rng.randint(2, len(labels)))))
            if sig not in stm:
                first = rng.randint(0, step) if step else 0
                stm[sig] = STMEntry(first, rng.randint(1, 5))
            appeared = rng.randint(0, step) if step else 0
            gone = None if rng.random() < 0.5 else rng.randint(appeared, step)
            if sig not in ltm:
                ltm[sig] = LTMRecord(sig, appeared, gone, rng.randint(1, 4))
    return EngineState(mmap, params, stm, ltm)
