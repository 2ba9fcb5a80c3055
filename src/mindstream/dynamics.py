"""One synchronization step per transaction.

Each ingested transaction triggers an atomic update of the mind-map, made
in place in one pass: duplicate merging, cell creation / merge with
activation boosts, edge creation or Hebbian reinforcement, multiplicative
decay of everything not touched this step, and forgetting of edges and
cells that fell below the floor. The step advances the map's counter
first and stamps every cell and edge it touches with it. Decay is forward
(see `MindMap`): no untouched record is written, and a timing wheel keyed
by step files each record at the first step it reads below the floor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, combinations, repeat
from math import log
from typing import Dict, Iterable, List, Sequence, Tuple

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
    """What happened during one synchronization step; pairs in `combinations` order."""

    step: int = 0
    cells_created: List[str] = field(default_factory=list)
    edges_created: List[Pair] = field(default_factory=list)
    edges_reinforced: List[Pair] = field(default_factory=list)
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


def due_step(since: int, value: float, floor: float, keep: float, log_keep: float) -> int:
    """The first step at which `value` >= `floor` > 0, held as of step
    `since` and read as value * keep**n after n steps (keep < 1, log_keep =
    log(keep)), is below `floor`: a log estimate, corrected by that read."""
    n = int(log(floor / value) / log_keep) + 1
    while value * keep**n >= floor:
        n += 1
    while n > 1 and value * keep ** (n - 1) < floor:
        n -= 1
    return since + n


def file_due(
    wheel: Dict[int, List[Tuple]], keys: Iterable, since: int,
    value: float, floor: float, keep: float, log_keep: float,
) -> None:
    """File a (key, since) entry for each of `keys`, whose records hold
    `value` as of step `since`, at the step `due_step` gives."""
    bucket = wheel.setdefault(due_step(since, value, floor, keep, log_keep), [])
    for key in keys:
        bucket.append((key, since))


def pop_due(
    mmap: MindMap, wheel: Dict[int, List[Tuple]], floor_w: float, floor_a: float
) -> Tuple[List[Pair], List[str]]:
    """Pop this step's bucket of `wheel`, which holds one (key, since) entry
    per record at or above its floor, filed at the first step the record
    reads below it as held since then; returns the edges below `floor_w` and
    the cells below `floor_a`. An entry whose record is gone, or is a cell
    created after it, is dropped. A record not stamped since has crossed and
    is not read; one stamped since is read, and is filed again from its new
    stamp if it is not below. No entry is due after its record crosses."""
    step, keep_w, keep_a = mmap.step, mmap.keep_w, mmap.keep_a
    log_w, log_a = mmap.log_w, mmap.log_a
    crossed_edges: List[Pair] = []
    crossed_cells: List[str] = []
    for key, since in wheel.pop(step, ()):
        if isinstance(key, tuple):
            record = mmap.edges.get(key)
            if record is None:
                continue
            now, crossed = record.last_reinforced_at, crossed_edges
            if now > since:
                value, floor, keep, log_keep = record.weight, floor_w, keep_w, log_w
        else:
            record = mmap.cells.get(key)
            if record is None or record.created_at > since:
                continue
            now, crossed = record.last_activated_at, crossed_cells
            if now > since:
                value, floor, keep, log_keep = record.activation, floor_a, keep_a, log_a
        if now <= since or value * keep ** (step - now) < floor:  # unread if not stamped since
            crossed.append(key)
        else:
            file_due(wheel, (key,), now, value, floor, keep, log_keep)
    return crossed_edges, crossed_cells


def decay_pass(mmap: MindMap, params: EngineParams) -> Tuple[List[Pair], List[str]]:
    """Pop this step's bucket of `mmap.wheel`; returns the edges and the cells
    that decay took below the floor this step."""
    return pop_due(mmap, mmap.wheel, params.epsilon, params.epsilon)


def prune_forgotten(
    mmap: MindMap, edges: Sequence[Pair], cells: Sequence[str], epsilon: float
) -> Tuple[List[Pair], List[str]]:
    """Drop the given edges, then the given cells and the dropped edges' ends
    that are isolated and below the floor, in place; returns the dropped
    edges and cells, each sorted. All that is given was found below the
    floor already, so only a dropped edge's end has its activation read.

    A cell that still has a surviving edge is never removed, whatever its
    activation: edges pin their endpoints. Deciding only these is exact
    because every step ends with no edge below the floor and no isolated
    cell below it; a map adopted from elsewhere must start that way too.
    """
    if not edges and not cells:
        return [], []
    table, degree = mmap.edges, mmap.degree
    dead_edges = sorted(edges)
    for pair in dead_edges:
        del table[pair]
        for label in pair:
            degree[label] -= 1
            if not degree[label]:
                del degree[label]
    below = set(cells)
    dead_cells = sorted(
        label
        for label in below.union(*dead_edges)
        if label not in degree
        and (label in below or mmap.activation_of(mmap.cells[label]) < epsilon)
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
    mmap.keep_w, mmap.keep_a = keep_w, keep_a = 1.0 - params.beta_w, 1.0 - params.beta_a
    mmap.log_w, mmap.log_a = log_w, log_a = log(keep_w), log(keep_a)  # 0.0 without decay
    events = StepEvents(step=step)
    cells, edges, eps, origin = mmap.cells, mmap.edges, params.epsilon, mmap.origin
    before, wheel = step - 1, mmap.wheel  # a read before decay is of the value at `before`
    if eps == 0.0:  # nothing reads below a floor of 0, so nothing is filed
        log_w = log_a = 0.0
    if before == origin:  # the first step on given values: file them as of `origin`
        for key, conn in edges.items():
            if log_w and conn.weight >= eps:
                file_due(wheel, (key,), origin, conn.weight, eps, keep_w, log_w)
        for label, cell in cells.items():
            if log_a and cell.activation >= eps:
                file_due(wheel, (label,), origin, cell.activation, eps, keep_a, log_a)

    # Boosts per occurrence. A boost reads only its own cell's pre-step
    # activation (a new cell's as stored), so each cell is written at once.
    # A cell is filed when it rises to the floor: born there, or boosted from below it.
    labels = sorted(txn.items)
    low_cells: List[str] = []
    for label in labels:
        cell = cells.get(label)
        if cell is None:
            cells[label] = cell = ItemCell(INITIAL_ACTIVATION, step, step)
            events.cells_created.append(label)
        a = cell.activation
        if keep_a != 1.0 and (stamp := cell.last_activated_at) < before:
            a *= keep_a ** (before - (stamp if stamp > origin else origin))
        a_pre = a
        for _ in range(txn.items[label]):
            a = activate_cell(a, params.lam)
        cell.activation = a
        cell.last_activated_at = step
        if a < eps:
            low_cells.append(label)
        elif log_a and (a_pre < eps or cell.created_at == step):
            file_due(wheel, (label,), step, a, eps, keep_a, log_a)

    # Reinforce each existing edge's pre-step weight with the post-boost
    # activations of its cells, then create, count and file the new edges as one
    # batch: all are born at one weight. Sorted distinct labels give canonical pairs.
    low_edges: List[Pair] = []
    if len(labels) >= 2:
        created, reinforced = events.edges_created, events.edges_reinforced
        for pair in combinations(labels, 2):
            conn = edges.get(pair)
            if conn is None:
                created.append(pair)
                continue
            w = conn.weight
            if keep_w != 1.0 and (stamp := conn.last_reinforced_at) < before:
                w *= keep_w ** (before - (stamp if stamp > origin else origin))
            a_i, a_j = cells[pair[0]].activation, cells[pair[1]].activation
            conn.weight = hebbian_update(w, a_i, a_j, params.eta)
            conn.last_reinforced_at = step
            reinforced.append(pair)
        w0 = initial_weight(len(labels))
        edges.update(zip(created, map(Connection, repeat(w0), repeat(step))))
        mmap.degree.update(chain.from_iterable(created))
        if w0 < eps:
            low_edges = created
        elif log_w and created:  # all born at w0, so all due together
            file_due(wheel, created, step, w0, eps, keep_w, log_w)

    # Forgetting decides only what can have crossed the floor this step:
    # what decay took below it, and new edges and touched cells below it.
    faded_edges, faded_cells = decay_pass(mmap, params)
    events.edges_forgotten, events.cells_forgotten = prune_forgotten(
        mmap, faded_edges + low_edges, faded_cells + low_cells, eps
    )
    return mmap, events
