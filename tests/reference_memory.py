"""Reference pattern memory: the list-based STM/LTM, kept for tests only.

This is the pattern memory as it was before it became two signature-keyed
dicts updated in place: `Pattern` objects, an `ltm_update` that rebuilds
every record into a new list, and an engine step that works out which
records were promoted, reopened or closed by diffing sets built over the
whole LTM before and after the update. `ReferenceEngine` runs it on top of
the reference dynamics step, so the differential test can compare the
shipped engine with both references at once. Components are found by the
whole-skeleton search `_components`, not by `skeleton.components`, and
`strongest_subgraphs` ranks them the way the shipped query did before it
used that helper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Set, Tuple

from mindstream.engine import Engine
from mindstream.memory import LTMRecord, Signature
from mindstream.model import MindMap
from mindstream.skeleton import Skeleton, extract_skeleton
from mindstream.snapshot import EngineState, _fmt_signature, _quote

import reference_dynamics


@dataclass(frozen=True)
class Pattern:
    signature: Signature
    edges: Tuple


@dataclass
class STMEntry:
    pattern: Pattern
    first_seen_step: int
    consecutive_steps: int = 1


def _components(s: Skeleton) -> List[Tuple[FrozenSet[str], Tuple]]:
    """(nodes, edges) of each connected component of `s`; its nodes are the
    ends of its edges."""
    nodes = sorted({label for pair, _ in s.edges for label in pair})
    adjacency: Dict[str, set] = {n: set() for n in nodes}
    for (a, b), _ in s.edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    edges_of: Dict[str, list] = {}  # node -> edge list of its component
    comps: List[Tuple[set, list]] = []
    for start in nodes:
        if start in edges_of:
            continue
        members, edges = set(), []
        stack = [start]
        while stack:
            node = stack.pop()
            if node in members:
                continue
            members.add(node)
            edges_of[node] = edges
            stack.extend(adjacency[node] - members)
        comps.append((members, edges))
    for edge in s.edges:
        edges_of[edge[0][0]].append(edge)
    return [(frozenset(members), tuple(edges)) for members, edges in comps]


def strongest_subgraphs(
    mmap: MindMap, theta_w: float, top_k: int
) -> List[Tuple[Signature, float]]:
    """(signature, mean edge weight) of the top_k components of the
    weight-thresholded skeleton: mean weight descending, then size
    descending, then the smallest node label."""

    def rank_key(comp):
        nodes, edges = comp
        mean_w = sum(w for _, w in edges) / len(edges)
        return (-mean_w, -len(nodes), min(nodes))

    comps = sorted(_components(extract_skeleton(mmap, theta_w, 0.0)), key=rank_key)[:top_k]
    return [(tuple(sorted(c[0])), -rank_key(c)[0]) for c in comps]


def detect_patterns(s: Skeleton, step: int) -> Set[Pattern]:
    """One pattern per connected skeleton component with >= 2 nodes."""
    patterns = set()
    for nodes, edges in _components(s):
        if len(nodes) >= 2:
            patterns.add(Pattern(tuple(sorted(nodes)), edges))
    return patterns


def stm_tick(
    stm: Dict[Signature, STMEntry],
    current: Set[Pattern],
    step: int,
    promote_after: int,
) -> Tuple[Dict[Signature, STMEntry], Set[Pattern]]:
    """Advance the short-term memory by one step.

    Entries matching a current pattern gain a step; absent entries lapse
    (one missed step resets survival). Patterns whose count reaches exactly
    promote_after are returned for promotion.
    """
    if promote_after < 1:
        raise ValueError("promote_after must be >= 1")
    stm_next: Dict[Signature, STMEntry] = {}
    promotions: Set[Pattern] = set()
    for pattern in current:
        sig = pattern.signature
        prior = stm.get(sig)
        if prior is None:
            entry = STMEntry(pattern, first_seen_step=step)
        else:
            entry = STMEntry(pattern, prior.first_seen_step, prior.consecutive_steps + 1)
        stm_next[sig] = entry
        if entry.consecutive_steps == promote_after:
            promotions.add(pattern)
    return stm_next, promotions


def ltm_update(
    ltm: List[LTMRecord],
    promotions: Set[Pattern],
    current: Set[Pattern],
    step: int,
) -> List[LTMRecord]:
    """Apply promotions and closures for one step; returns a new list.

    Recurrence matching is by exact signature: a promotion whose closed
    record exists reopens it; otherwise a fresh record is created. Open
    records whose signature left the current pattern set are closed.
    """
    out = [
        LTMRecord(r.signature, r.appeared_at, r.disappeared_at, r.recurrence_count)
        for r in ltm
    ]
    by_sig = {r.signature: r for r in out}
    current_sigs = {p.signature for p in current}

    for pattern in sorted(promotions, key=lambda p: p.signature):
        record = by_sig.get(pattern.signature)
        if record is None:
            record = LTMRecord(pattern.signature, appeared_at=step)
            out.append(record)
            by_sig[pattern.signature] = record
        elif not record.is_open:
            record.recurrence_count += 1
            record.appeared_at = step
            record.disappeared_at = None

    for record in out:
        if record.is_open and record.signature not in current_sigs:
            record.disappeared_at = step
    return out


class ReferenceEngine(Engine):
    """The engine step on the reference dynamics and the reference memory.

    Queries and their emissions are the shipped engine's. The LTM is the
    list `ltm_list`, since `Engine.ltm` is a read-only view.
    """

    def __init__(self, params):
        super().__init__(params)
        self.ltm_list: List[LTMRecord] = []

    @property
    def state(self) -> EngineState:
        ltm = {r.signature: r for r in self.ltm_list}
        assert len(ltm) == len(self.ltm_list), "two LTM records share a signature"
        return EngineState(self.mmap, self.params, self.stm, ltm)

    def ingest(self, txn):
        self.mmap, events = reference_dynamics.ingest_transaction(
            self.mmap, txn, self.params
        )
        step = self.mmap.step

        skel = extract_skeleton(self.mmap, self.params.theta_w, self.params.theta_a)
        current = detect_patterns(skel, step)
        self.stm, promotions = stm_tick(
            self.stm, current, step, self.params.promote_after
        )
        open_before = {r.signature for r in self.ltm_list if r.is_open}
        recurrence_before = {r.signature: r.recurrence_count for r in self.ltm_list}
        self.ltm_list = ltm_update(self.ltm_list, promotions, current, step)

        self._report(events, promotions, open_before, recurrence_before)
        self._evaluate_queries(step)
        return events

    def _report(self, events, promotions, open_before, recurrence_before) -> None:
        log, q = self.event_lines.append, _quote
        step = events.step
        for label in events.cells_created:
            log(f"{step} cell-created {q(label)}")
        for a, b in events.edges_created:
            log(f"{step} edge-created {q(a)} {q(b)}")
        for a, b in events.edges_forgotten:
            log(f"{step} edge-forgotten {q(a)} {q(b)}")
        for label in events.cells_forgotten:
            log(f"{step} cell-forgotten {q(label)}")
        for pattern in sorted(promotions, key=lambda p: p.signature):
            sig = pattern.signature
            if sig in recurrence_before and sig not in open_before:
                log(f"{step} pattern-reopened {_fmt_signature(sig)}")
            else:
                log(f"{step} pattern-promoted {_fmt_signature(sig)}")
        open_after = {r.signature for r in self.ltm_list if r.is_open}
        for sig in sorted(open_before - open_after):
            log(f"{step} pattern-closed {_fmt_signature(sig)}")
