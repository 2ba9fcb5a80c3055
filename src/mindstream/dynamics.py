"""One synchronization step per transaction.

Each ingested transaction triggers an atomic update of the mind-map:
duplicate merging, cell creation / merge with activation boosts, edge
creation or Hebbian reinforcement, multiplicative decay of everything not
touched this step, and forgetting of edges and cells that fell below the
floor. All updates are computed against the pre-step state and only then
committed (two-phase); the commit, decay and forgetting update the given
map in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Container, Dict, Iterable, List, Tuple

from .model import (
    Connection,
    EngineParams,
    ItemCell,
    MindMap,
    Pair,
    Transaction,
)

INITIAL_ACTIVATION = 0.5


class NoPairsError(ValueError):
    """A single-item transaction has no pairs to weight."""


@dataclass
class StepEvents:
    """What happened during one synchronization step."""

    step: int = 0
    cells_created: List[str] = field(default_factory=list)
    edges_created: List[Pair] = field(default_factory=list)
    cells_forgotten: List[str] = field(default_factory=list)
    edges_forgotten: List[Pair] = field(default_factory=list)


def initial_weight(m: int) -> float:
    """Weight 1/m for edges born from a transaction with m distinct items."""
    if m < 2:
        raise NoPairsError(f"no pairs in a transaction of {m} distinct item(s)")
    return 1.0 / m


def activate_cell(a: float, lam: float) -> float:
    """Saturating boost a + lam*(1 - a); fixed point at 1."""
    return a + lam * (1.0 - a)


def hebbian_update(w: float, a_i: float, a_j: float, eta: float) -> float:
    """Saturating reinforcement w + eta*a_i*a_j*(1 - w), clamped to 1."""
    return min(1.0, w + eta * a_i * a_j * (1.0 - w))


def decay_pass(
    mmap: MindMap,
    reinforced: Container[Pair],
    activated: Container[str],
    params: EngineParams,
) -> Tuple[List[Pair], List[str]]:
    """Multiplicative decay, in place, on everything outside the touched sets;
    returns the edges now below the floor and the cells it took below it."""
    eps = params.epsilon
    faded_edges: List[Pair] = []
    faded_cells: List[str] = []
    if params.beta_w > 0.0:
        keep_w = 1.0 - params.beta_w
        for pair, conn in mmap.edges.items():
            if pair not in reinforced:
                conn.weight = w = conn.weight * keep_w
                if w < eps:
                    faded_edges.append(pair)
    if params.beta_a > 0.0:
        keep_a = 1.0 - params.beta_a
        for label, cell in mmap.cells.items():
            if label not in activated:
                a = cell.activation * keep_a
                if a < eps <= cell.activation:
                    faded_cells.append(label)
                cell.activation = a
    return faded_edges, faded_cells


def prune_forgotten(
    mmap: MindMap, edges: Iterable[Pair], cells: Iterable[str], epsilon: float
) -> Tuple[List[Pair], List[str]]:
    """Drop the candidate edges below the floor, then the candidate cells
    below it that are isolated, in place; returns the dropped edges and
    cells, each sorted. The endpoints of a dropped edge join the candidates.

    A cell that still has a surviving edge is never removed, whatever its
    activation: edges pin their endpoints. Deciding only candidates is exact
    because every step ends with no edge below the floor and no isolated
    cell below it; a map adopted from elsewhere must start that way too.
    """
    table, degree = mmap.edges, mmap.degree
    dead_edges = sorted(p for p in edges if table[p].weight < epsilon)
    for pair in dead_edges:
        del table[pair]
        for label in pair:
            degree[label] -= 1
            if not degree[label]:
                del degree[label]
    candidates = set(cells).union(*dead_edges)
    dead_cells = sorted(
        label
        for label in candidates
        if label not in degree and mmap.cells[label].activation < epsilon
    )
    for label in dead_cells:
        del mmap.cells[label]
    return dead_edges, dead_cells


def ingest_transaction(
    mmap: MindMap, txn: Transaction, params: EngineParams
) -> Tuple[MindMap, StepEvents]:
    """Apply one full synchronization step to `mmap` in place; returns the
    same map and the step's events.

    An empty transaction only runs decay and forgetting and advances the
    step counter.
    """
    step = mmap.step + 1
    events = StepEvents(step=step)

    # Phase 1+2: boosts per occurrence, against pre-step activations.
    labels = sorted(txn.items)
    boosted: Dict[str, float] = {}
    for label in labels:
        count = txn.items[label]
        cell = mmap.cells.get(label)
        if cell is None:
            a = INITIAL_ACTIVATION
            events.cells_created.append(label)
        else:
            a = cell.activation
        for _ in range(count):
            a = activate_cell(a, params.lam)
        boosted[label] = a

    # Phase 3: edge creation / reinforcement against pre-step weights,
    # using this step's post-boost activations. Newly created edges are
    # not additionally reinforced within their creation step. The labels
    # are sorted and distinct, so each pair is already canonical.
    new_weights: Dict[Pair, float] = {}
    if len(labels) >= 2:
        w0 = initial_weight(len(labels))
        for pair in combinations(labels, 2):
            conn = mmap.edges.get(pair)
            if conn is None:
                new_weights[pair] = w0
                events.edges_created.append(pair)
            else:
                new_weights[pair] = hebbian_update(
                    conn.weight, boosted[pair[0]], boosted[pair[1]], params.eta
                )

    # Commit.
    for label, a in boosted.items():
        cell = mmap.cells.get(label)
        if cell is None:
            mmap.cells[label] = ItemCell(a, step, step)
        else:
            cell.activation = a
            cell.last_activated_at = step
    for pair, w in new_weights.items():
        conn = mmap.edges.get(pair)
        if conn is None:
            mmap.edges[pair] = Connection(w, step)
            mmap.degree[pair[0]] += 1
            mmap.degree[pair[1]] += 1
        else:
            conn.weight = w
            conn.last_reinforced_at = step

    # Phase 4: decay of the untouched complement.
    faded_edges, faded_cells = decay_pass(mmap, new_weights, boosted, params)

    # Phase 5: forgetting decides only what can have crossed the floor this
    # step: what decay took below it, and new edges and touched cells below it.
    eps = params.epsilon
    if new_weights and w0 < eps:
        faded_edges += events.edges_created
    faded_cells += [label for label, a in boosted.items() if a < eps]
    events.edges_forgotten, events.cells_forgotten = prune_forgotten(
        mmap, faded_edges, faded_cells, eps
    )

    mmap.step = step
    return mmap, events
