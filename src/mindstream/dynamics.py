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

from collections import Counter
from itertools import chain, combinations
from math import log
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple

from .model import EngineParams, MindMap, Pair, Transaction

INITIAL_ACTIVATION = 0.5


class NoPairsError(ValueError):
    """A single-item transaction has no pairs to weight."""


class StepEvents(NamedTuple):
    """What happened during one synchronization step; pairs in `combinations`
    order, forgotten ones sorted. Each list is the step's own."""

    step: int
    cells_created: List[str]
    edges_created: List[Pair]
    edges_reinforced: List[Pair]
    cells_forgotten: List[str]
    edges_forgotten: List[Pair]


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


def due_step(since: int, value: float, floor: float, keep: float) -> int:
    """The first step at which `value` >= `floor` > 0, held as of step
    `since` and read as value * keep**n after n steps (keep < 1), is below
    `floor`: a log estimate, corrected by that read."""
    n = int(log(floor / value) / log(keep)) + 1
    while value * keep**n >= floor:
        n += 1
    while n > 1 and value * keep ** (n - 1) < floor:
        n -= 1
    return since + n


def file_due(
    wheel: Dict[int, List[Tuple]], keys: Iterable, since: int,
    value: float, floor: float, keep: float,
) -> None:
    """File a (key, since) entry for each of `keys`, whose records hold
    `value` as of step `since`, at the step `due_step` gives; only records
    that decay (keep < 1) from `value` to a floor above 0 are ever due."""
    if keep == 1.0 or floor == 0.0 or value < floor:
        return
    bucket = wheel.setdefault(due_step(since, value, floor, keep), [])
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
    crossed_edges: List[Pair] = []
    crossed_cells: List[str] = []
    for key, since in wheel.pop(step, ()):
        if isinstance(key, tuple):
            record = mmap.edges.get(key)
            if record is None:
                continue
            value, now = record
            crossed = crossed_edges
            if now > since:
                floor, keep = floor_w, keep_w
        else:
            record = mmap.cells.get(key)
            if record is None or record[1] > since:
                continue
            value, _, now = record
            crossed = crossed_cells
            if now > since:
                floor, keep = floor_a, keep_a
        if now <= since or value * keep ** (step - now) < floor:  # unread if not stamped since
            crossed.append(key)
        else:
            file_due(wheel, (key,), now, value, floor, keep)
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
    if degree is None:  # the map's first forgetting: count each cell's edges once
        degree = mmap.degree = dict(Counter(chain.from_iterable(table)))
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
    cells, edges, eps, origin = mmap.cells, mmap.edges, params.epsilon, mmap.origin
    before, wheel = step - 1, mmap.wheel  # a read before decay is of the value at `before`
    if before == origin:  # the first step on given values: file them as of `origin`
        for key, (w, _) in edges.items():
            file_due(wheel, (key,), origin, w, eps, keep_w)
        for label, (a, _, _) in cells.items():
            file_due(wheel, (label,), origin, a, eps, keep_a)

    # Boosts per occurrence. A boost reads only its own cell's pre-step
    # activation (a new cell's initial one), so each cell is written at once.
    # A cell is filed when it rises to the floor: born there, or boosted from below it.
    labels = sorted(txn.items)
    lam, eta = params.lam, params.eta
    cells_created: List[str] = []
    low_cells: List[str] = []
    for label in labels:
        cell = cells.get(label)
        if cell is None:
            a, born = INITIAL_ACTIVATION, step
            cells_created.append(label)
        else:
            a, born, stamp = cell
            if stamp < before:
                a *= keep_a ** (before - (stamp if stamp > origin else origin))
        a_pre = a
        for _ in range(txn.items[label]):
            a = activate_cell(a, lam)
        cells[label] = (a, born, step)
        if a < eps:
            low_cells.append(label)
        elif a_pre < eps or born == step:
            file_due(wheel, (label,), step, a, eps, keep_a)

    # Reinforce each existing edge's pre-step weight with the post-boost
    # activations of its cells. A new pair goes in by one `setdefault` of the
    # `birth` record that all the step's new edges share, born at one weight,
    # and all are counted and filed as one batch. Sorted labels give canonical pairs.
    created: List[Pair] = []
    reinforced: List[Pair] = []
    low_edges: List[Pair] = []
    if len(labels) >= 2:
        w0 = initial_weight(len(labels))
        birth = (w0, step)
        for pair in combinations(labels, 2):
            edge = edges.setdefault(pair, birth)
            if edge is birth:
                created.append(pair)
                continue
            w, stamp = edge
            if stamp < before:
                w *= keep_w ** (before - (stamp if stamp > origin else origin))
            a_i, a_j = cells[pair[0]][0], cells[pair[1]][0]
            edges[pair] = (hebbian_update(w, a_i, a_j, eta), step)
            reinforced.append(pair)
        if (degree := mmap.degree) is not None:  # counted at the first step that forgets
            for label in chain.from_iterable(created):
                degree[label] = degree.get(label, 0) + 1
        if w0 < eps:
            low_edges = created
        elif created:  # all born at w0, so all due together
            file_due(wheel, created, step, w0, eps, keep_w)

    # Forgetting decides only what can have crossed the floor this step:
    # what decay took below it, and new edges and touched cells below it.
    faded_edges, faded_cells = decay_pass(mmap, params)
    edges_forgotten, cells_forgotten = prune_forgotten(
        mmap, faded_edges + low_edges, faded_cells + low_cells, eps
    )
    return mmap, StepEvents(
        step, cells_created, created, reinforced, cells_forgotten, edges_forgotten
    )
