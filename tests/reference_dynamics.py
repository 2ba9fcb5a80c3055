"""Test-only reference: the copy-per-phase synchronization step.

These are the pure `decay_pass`, `prune_forgotten` and `ingest_transaction`
that `mindstream.dynamics` replaced with in-place versions. Each returns a
new map built through `MindMap.copy()` and leaves its argument untouched.
The differential test drives an engine with this step and one with the
in-place step, and requires identical snapshots and events after every step.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, Set, Tuple

from mindstream.dynamics import (
    INITIAL_ACTIVATION,
    StepEvents,
    activate_cell,
    hebbian_update,
    initial_weight,
)
from mindstream.model import (
    Connection,
    EngineParams,
    ItemCell,
    MindMap,
    Pair,
    Transaction,
    canonical_pair,
)


def decay_pass(
    mmap: MindMap,
    reinforced: Set[Pair],
    activated: Set[str],
    params: EngineParams,
) -> MindMap:
    """Multiplicative decay on everything outside the touched sets."""
    out = mmap.copy()
    if params.beta_w > 0.0:
        for pair, conn in out.edges.items():
            if pair not in reinforced:
                conn.weight = conn.weight * (1.0 - params.beta_w)
    if params.beta_a > 0.0:
        for label, cell in out.cells.items():
            if label not in activated:
                cell.activation = cell.activation * (1.0 - params.beta_a)
    return out


def prune_forgotten(
    mmap: MindMap, epsilon: float
) -> Tuple[MindMap, List[Pair], List[str]]:
    """Drop edges below the floor, then isolated cells below the floor.

    A cell that still has a surviving edge is never removed, whatever its
    activation: edges pin their endpoints.
    """
    out = mmap.copy()
    dead_edges = sorted(p for p, c in out.edges.items() if c.weight < epsilon)
    for pair in dead_edges:
        del out.edges[pair]
    pinned = {label for pair in out.edges for label in pair}
    dead_cells = sorted(
        label
        for label, cell in out.cells.items()
        if label not in pinned and cell.activation < epsilon
    )
    for label in dead_cells:
        del out.cells[label]
    return out, dead_edges, dead_cells


def ingest_transaction(
    mmap: MindMap, txn: Transaction, params: EngineParams
) -> Tuple[MindMap, StepEvents]:
    """Apply one full synchronization step; returns the new map and events.

    An empty transaction only runs decay and forgetting and advances the
    step counter.
    """
    step = mmap.step + 1
    events = StepEvents(step=step)
    out = mmap.copy()

    # Phase 1+2: boosts per occurrence, against pre-step activations.
    boosted: Dict[str, float] = {}
    for label in sorted(txn.items):
        count = txn.items[label]
        cell = out.cells.get(label)
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
    # not additionally reinforced within their creation step.
    labels = sorted(txn.items)
    new_weights: Dict[Pair, float] = {}
    if len(labels) >= 2:
        w0 = initial_weight(len(labels))
        for a, b in combinations(labels, 2):
            pair = canonical_pair(a, b)
            conn = out.edges.get(pair)
            if conn is None:
                new_weights[pair] = w0
                events.edges_created.append(pair)
            else:
                new_weights[pair] = hebbian_update(
                    conn.weight, boosted[a], boosted[b], params.eta
                )
                events.edges_reinforced.append(pair)

    # Commit.
    for label, a in boosted.items():
        cell = out.cells.get(label)
        if cell is None:
            out.cells[label] = ItemCell(a, step, step)
        else:
            cell.activation = a
            cell.last_activated_at = step
    for pair, w in new_weights.items():
        conn = out.edges.get(pair)
        if conn is None:
            out.edges[pair] = Connection(w, step)
        else:
            conn.weight = w
            conn.last_reinforced_at = step

    # Phase 4: decay of the untouched complement.
    out = decay_pass(out, set(new_weights), set(boosted), params)

    # Phase 5: forgetting.
    out, events.edges_forgotten, events.cells_forgotten = prune_forgotten(
        out, params.epsilon
    )

    out.step = step
    return out, events
