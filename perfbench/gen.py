"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of the seed and uses only the standard
library; nothing imports mindstream, so the program under test sees only the
text this module produces.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

Pair = Tuple[str, str]
DATE = "2004-03-01"


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def stream_lines(baskets: List[List[str]]) -> List[str]:
    """One `date;ref;name` record per item; the basket index is the ref."""
    return [f"{DATE};{ref};{item}\n" for ref, basket in enumerate(baskets) for item in basket]


# --- ingest-grow -----------------------------------------------------------

GROW_TXNS = 300
GROW_BASKET = 10
GROW_ALPHABET = 2000
# No decay and no forgetting, so the final map is exactly the co-occurrence
# graph of the stream and grows with every transaction.
GROW_FLAGS = ["--beta-w", "0", "--beta-a", "0", "--epsilon", "0"]


def grow_baskets(seed: int) -> List[List[str]]:
    rng = _rng("ingest-grow", seed)
    return [
        sorted(f"g{k:04d}" for k in rng.sample(range(GROW_ALPHABET), GROW_BASKET))
        for _ in range(GROW_TXNS)
    ]


def cooccurrence(baskets: List[List[str]]) -> Tuple[Set[str], Set[Pair]]:
    """Items seen and item pairs that co-occur, from the generator's side."""
    cells = {item for basket in baskets for item in basket}
    edges = {pair for basket in baskets for pair in itertools.combinations(sorted(basket), 2)}
    return cells, edges


# --- ingest-churn ----------------------------------------------------------

CHURN_TXNS = 1000
CHURN_ALPHABET = 1000
CHURN_ZIPF_S = 1.1
CHURN_PATTERNS = 20
CHURN_GROUPS = 4
CHURN_PLANT_P = 0.6
# The active pattern group changes every CHURN_PERIOD transactions and cycles
# back after CHURN_GROUPS periods, so LTM records close and later reopen.
CHURN_PERIOD = 150
# Two continuous edge traces that stay registered for the whole run.
CHURN_TRACES = [("p000", "p001"), ("p050", "p051")]
CHURN_FLAGS = ["--horizon", str(10 * CHURN_TXNS)] + [
    tok for a, b in CHURN_TRACES for tok in ("--trace", a, b)
]


def churn_patterns() -> List[List[str]]:
    return [[f"p{p:02d}{j}" for j in range(4)] for p in range(CHURN_PATTERNS)]


def churn_baskets(seed: int) -> List[List[str]]:
    rng = _rng("ingest-churn", seed)
    background = [f"b{k:04d}" for k in range(CHURN_ALPHABET)]
    cum = list(itertools.accumulate(1.0 / (k + 1) ** CHURN_ZIPF_S for k in range(CHURN_ALPHABET)))
    patterns = churn_patterns()
    per_group = CHURN_PATTERNS // CHURN_GROUPS
    baskets = []
    for t in range(CHURN_TXNS):
        size = rng.randint(2, 5)
        items: Set[str] = set()
        while len(items) < size:
            items.add(rng.choices(background, cum_weights=cum)[0])
        if rng.random() < CHURN_PLANT_P:
            group = (t // CHURN_PERIOD) % CHURN_GROUPS
            items.update(patterns[group * per_group + rng.randrange(per_group)])
        baskets.append(sorted(items))
    return baskets


# --- query-cold ------------------------------------------------------------

QC_CELLS = 1600
QC_EDGES = 13000
QC_STEP = 5000
QC_COMPONENT_SIZES = (4, 6, 10, 16, 24, 40, 60, 80)
QC_LTM = 60
PARAMS = (
    ("eta", 0.5),
    ("lam", 0.5),
    ("beta_w", 0.02),
    ("beta_a", 0.05),
    ("epsilon", 0.01),
    ("theta_w", 0.5),
    ("theta_a", 0.0),
    ("promote_after", 2),
)
# The fixed query mix; one op is one `mindstream query` invocation.
QUERY_KINDS = ("weight", "activation", "skeleton", "rules", "patterns", "strongest", "ltm")
QC_MIX_CYCLES = 20


@dataclass
class SnapshotSpec:
    """A generated engine state, kept as plain data for the expected answers."""

    step: int
    params: Dict[str, float]
    cells: Dict[str, Tuple[float, int, int]]  # label -> (activation, created, last)
    edges: Dict[Pair, Tuple[float, int]]  # canonical pair -> (weight, last)
    stm: Dict[Tuple[str, ...], Tuple[int, int]] = field(default_factory=dict)
    ltm: List[Tuple[Tuple[str, ...], int, Optional[int], int]] = field(default_factory=list)


def query_cold_spec(seed: int) -> SnapshotSpec:
    rng = _rng("query-cold", seed)
    labels = [f"c{k:04d}" for k in range(QC_CELLS)]
    cells = {}
    for label in labels:
        created = rng.randrange(1, QC_STEP)
        cells[label] = (rng.uniform(0.05, 1.0), created, rng.randrange(created, QC_STEP + 1))

    edges: Dict[Pair, Tuple[float, int]] = {}

    def add(a: str, b: str, lo: float, hi: float) -> None:
        pair = (a, b) if a < b else (b, a)
        edges[pair] = (rng.uniform(lo, hi), rng.randrange(1, QC_STEP + 1))

    # Skeleton components: a random spanning tree plus a few chords each,
    # over disjoint label sets, all at or above theta_w.
    pool = rng.sample(labels, sum(QC_COMPONENT_SIZES))
    components = []
    for size in QC_COMPONENT_SIZES:
        members, pool = pool[:size], pool[size:]
        components.append(members)
        for i in range(1, size):
            add(members[i], members[rng.randrange(i)], 0.5, 1.0)
        for _ in range(size // 2):
            a, b = rng.sample(members, 2)
            add(a, b, 0.5, 1.0)
    # Background edges below theta_w fill the map to its target size.
    while len(edges) < QC_EDGES:
        a, b = rng.sample(labels, 2)
        pair = (a, b) if a < b else (b, a)
        if pair not in edges:
            add(a, b, 0.011, 0.49)

    stm = {tuple(sorted(m)): (QC_STEP - rng.randrange(10), rng.randrange(1, 10)) for m in components}
    ltm = []
    seen = set()
    while len(ltm) < QC_LTM:
        sig = tuple(sorted(rng.sample(labels, rng.randint(2, 6))))
        if sig in seen:
            continue
        seen.add(sig)
        appeared = rng.randrange(1, QC_STEP)
        gone = None if rng.random() < 0.3 else rng.randrange(appeared + 1, QC_STEP + 1)
        ltm.append((sig, appeared, gone, rng.randint(1, 4)))
    return SnapshotSpec(QC_STEP, dict(PARAMS), cells, edges, stm, ltm)


def render_spec(spec: SnapshotSpec) -> str:
    """The canonical `MINDMAP v1` text of a generated state.

    Labels are plain tokens and floats use shortest round-trip decimals, so
    this is exactly what the engine would write for the same state.
    """
    lines = ["MINDMAP v1", f"step {spec.step}"]
    for name, value in PARAMS:
        lines.append(f"param {name} {value if name == 'promote_after' else repr(float(value))}")
    for label in sorted(spec.cells):
        a, created, last = spec.cells[label]
        lines.append(f"cell {label} {a!r} {created} {last}")
    for (a, b) in sorted(spec.edges):
        w, last = spec.edges[(a, b)]
        lines.append(f"edge {a} {b} {w!r} {last}")
    for sig in sorted(spec.stm):
        first, run = spec.stm[sig]
        lines.append(f"stm {'|'.join(sig)} {first} {run}")
    for sig, appeared, gone, rec in sorted(spec.ltm, key=lambda r: (r[1], r[0])):
        lines.append(f"ltm {'|'.join(sig)} {appeared} {'open' if gone is None else gone} {rec}")
    return "\n".join(lines) + "\n"


def query_mix(spec: SnapshotSpec, seed: int) -> List[List[str]]:
    """QC_MIX_CYCLES cycles through QUERY_KINDS with seeded arguments."""
    rng = _rng("query-mix", seed)
    labels = sorted(spec.cells)
    pairs = sorted(spec.edges)
    ops = []
    for cycle in range(QC_MIX_CYCLES):
        if cycle % 3 == 2:
            a, b = rng.sample(labels, 2)  # usually absent
        else:
            a, b = rng.choice(pairs)
        label = "c9999" if cycle % 5 == 4 else rng.choice(labels)
        ops += [
            ["weight", a, b],
            ["activation", label],
            ["skeleton", "--theta-a", "0.2"] if cycle % 2 else ["skeleton"],
            ["rules", "--theta-w", "0.7"],
            ["patterns"],
            ["strongest", "--theta-w", "0.6", "--top", "3"],
            ["ltm", ("all", "open", "closed")[cycle % 3]],
        ]
    return ops
