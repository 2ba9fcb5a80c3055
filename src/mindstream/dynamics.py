"""One synchronization step per transaction.

Each ingested transaction triggers an atomic update of the mind-map, made
in place in one pass: duplicate merging, cell creation / merge with
activation boosts, edge creation or Hebbian reinforcement, multiplicative
decay of everything not touched this step, and forgetting of edges and
cells that fell below the floor. The step advances the map's counter
first and stamps every cell and edge it touches with it, so the stamps
are the touched sets that decay skips.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, List, Tuple

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


def decay_pass(mmap: MindMap, params: EngineParams) -> Tuple[List[Pair], List[str]]:
    """Multiplicative decay, in place, of every record not stamped this step;
    returns the edges now below the floor and the cells it took below it."""
    step, eps = mmap.step, params.epsilon
    faded_edges: List[Pair] = []
    faded_cells: List[str] = []
    if params.beta_w > 0.0:
        keep_w = 1.0 - params.beta_w
        for pair, conn in mmap.edges.items():
            if conn.last_reinforced_at != step:
                conn.weight = w = conn.weight * keep_w
                if w < eps:
                    faded_edges.append(pair)
    if params.beta_a > 0.0:
        keep_a = 1.0 - params.beta_a
        for label, cell in mmap.cells.items():
            if cell.last_activated_at != step:
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
    # First, so that a record stamped with the new step is one this step touched.
    mmap.step = step = mmap.step + 1
    events = StepEvents(step=step)
    cells, edges, eps = mmap.cells, mmap.edges, params.epsilon

    # Boosts per occurrence. A boost reads only its own cell's pre-step
    # activation, so each cell is written at once.
    labels = sorted(txn.items)
    low_cells: List[str] = []
    for label in labels:
        cell = cells.get(label)
        if cell is None:
            cells[label] = cell = ItemCell(INITIAL_ACTIVATION, step, step)
            events.cells_created.append(label)
        a = cell.activation
        for _ in range(txn.items[label]):
            a = activate_cell(a, params.lam)
        cell.activation = a
        cell.last_activated_at = step
        if a < eps:
            low_cells.append(label)

    # Create each edge, or reinforce its pre-step weight with the post-boost
    # activations of its cells (a new edge is not also reinforced). The labels
    # are sorted and distinct, so each pair is already canonical.
    low_edges: List[Pair] = []
    if len(labels) >= 2:
        w0 = initial_weight(len(labels))
        for pair in combinations(labels, 2):
            conn = edges.get(pair)
            if conn is None:
                edges[pair] = Connection(w0, step)
                mmap.degree[pair[0]] += 1
                mmap.degree[pair[1]] += 1
                events.edges_created.append(pair)
            else:
                a_i, a_j = cells[pair[0]].activation, cells[pair[1]].activation
                conn.weight = hebbian_update(conn.weight, a_i, a_j, params.eta)
                conn.last_reinforced_at = step
        if w0 < eps:
            low_edges = events.edges_created

    # Forgetting decides only what can have crossed the floor this step:
    # what decay took below it, and new edges and touched cells below it.
    faded_edges, faded_cells = decay_pass(mmap, params)
    events.edges_forgotten, events.cells_forgotten = prune_forgotten(
        mmap, faded_edges + low_edges, faded_cells + low_cells, eps
    )
    return mmap, events
