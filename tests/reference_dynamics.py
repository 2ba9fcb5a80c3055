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
from mindstream.model import EngineParams, MindMap, Pair, Transaction, canonical_pair


def decay_pass(
    mmap: MindMap,
    reinforced: Set[Pair],
    activated: Set[str],
    params: EngineParams,
) -> MindMap:
    """Multiplicative decay on everything outside the touched sets."""
    out = mmap.copy()
    if params.beta_w > 0.0:
        for pair, (w, stamp) in out.edges.items():
            if pair not in reinforced:
                out.edges[pair] = (w * (1.0 - params.beta_w), stamp)
    if params.beta_a > 0.0:
        for label, (a, born, stamp) in out.cells.items():
            if label not in activated:
                out.cells[label] = (a * (1.0 - params.beta_a), born, stamp)
    return out


def prune_forgotten(
    mmap: MindMap, epsilon: float
) -> Tuple[MindMap, List[Pair], List[str]]:
    """Drop edges below the floor, then isolated cells below the floor.

    A cell that still has a surviving edge is never removed, whatever its
    activation: edges pin their endpoints.
    """
    out = mmap.copy()
    dead_edges = sorted(p for p, (w, _) in out.edges.items() if w < epsilon)
    for pair in dead_edges:
        del out.edges[pair]
    pinned = {label for pair in out.edges for label in pair}
    dead_cells = sorted(
        label
        for label, (a, _, _) in out.cells.items()
        if label not in pinned and a < epsilon
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
    cells_created: List[str] = []
    edges_created: List[Pair] = []
    edges_reinforced: List[Pair] = []
    out = mmap.copy()

    # Phase 1+2: boosts per occurrence, against pre-step activations.
    boosted: Dict[str, float] = {}
    for label in sorted(txn.items):
        count = txn.items[label]
        cell = out.cells.get(label)
        if cell is None:
            a = INITIAL_ACTIVATION
            cells_created.append(label)
        else:
            a = cell[0]
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
                edges_created.append(pair)
            else:
                new_weights[pair] = hebbian_update(
                    conn[0], boosted[a], boosted[b], params.eta
                )
                edges_reinforced.append(pair)

    # Commit.
    for label, a in boosted.items():
        cell = out.cells.get(label)
        out.cells[label] = (a, step if cell is None else cell[1], step)
    for pair, w in new_weights.items():
        out.edges[pair] = (w, step)

    # Phase 4: decay of the untouched complement.
    out = decay_pass(out, set(new_weights), set(boosted), params)

    # Phase 5: forgetting.
    out, edges_forgotten, cells_forgotten = prune_forgotten(out, params.epsilon)

    out.step = step
    return out, StepEvents(
        step, cells_created, edges_created, edges_reinforced, cells_forgotten, edges_forgotten
    )
