"""Engine loop: ingestion, memory maintenance, events, continuous queries.

One Engine owns all mutable state, including the one mind-map that each
synchronization step updates in place; every ingested transaction runs the
full pipeline (dynamics step, skeleton, pattern detection, STM/LTM update,
event reporting, continuous-query evaluation). Queries only read the map
after the step has committed, so evaluation order never affects the state.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Set, ValuesView

from .dynamics import StepEvents, ingest_transaction
from .memory import LTMRecord, Signature, STMEntry, ltm_update, stm_tick
from .model import EngineParams, MindMap, Pair, Transaction, canonical_pair
from .skeleton import components
from .snapshot import EngineState


@dataclass
class ContinuousQuery:
    """A standing edge trace: after each of the next `horizon` steps it
    emits the target pair's weight, or "absent" while the edge is not in
    the map."""

    target: Pair
    horizon: int = 1
    emitted: int = 0

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        self.target = canonical_pair(*self.target)


@dataclass
class QueryEmission:
    query: ContinuousQuery
    step: int
    text: str


class Engine:
    def __init__(self, params: EngineParams = EngineParams()):
        self.params = params
        self.mmap = MindMap()
        # The kept skeleton, maintained by _update_skeleton: a superset of
        # the edges at or above theta_w, the kept pairs, their adjacency, and
        # each kept node's component signature plus the set of signatures.
        self._heavy: Set[Pair] = set()
        self._kept: Set[Pair] = set()
        self._adj: Dict[str, Set[str]] = {}
        self._sig_of: Dict[str, Signature] = {}
        self._patterns: Set[Signature] = set()
        self.stm: Dict[Signature, STMEntry] = {}
        self._ltm: Dict[Signature, LTMRecord] = {}
        self.event_lines: List[str] = []
        self.queries: List[ContinuousQuery] = []
        self.emissions: List[QueryEmission] = []

    @property
    def step(self) -> int:
        return self.mmap.step

    @property
    def ltm(self) -> ValuesView[LTMRecord]:
        """The long-term records; `state.ltm` holds them keyed by signature."""
        return self._ltm.values()

    @property
    def state(self) -> EngineState:
        return EngineState(self.mmap, self.params, self.stm, self._ltm)

    def register_query(self, query: ContinuousQuery) -> ContinuousQuery:
        self.queries.append(query)
        return query

    def ingest(self, txn: Transaction) -> StepEvents:
        self.mmap, events = ingest_transaction(self.mmap, txn, self.params)
        step = self.mmap.step

        self._update_skeleton(txn)
        current = self._patterns
        lapsed = self.stm.keys() - current
        self.stm, promotions = stm_tick(
            self.stm, current, step, self.params.promote_after
        )
        ltm_update(self._ltm, promotions, lapsed, step)

        self._report(events, promotions, lapsed)
        self._evaluate_queries(step)
        return events

    def _update_skeleton(self, txn: Transaction) -> None:
        """Bring the kept skeleton and its signatures to the step that
        ingested `txn`.

        An edge gains weight only in a step that touches it, so adding the
        step's pairs keeps `_heavy` a superset of the edges at or above
        theta_w; members gone or below it are dropped here. Only the pairs
        that entered or left the kept set change the adjacency, and only
        their ends start a new search: every node of a component such a pair
        touches is reachable from one of them (a removal splits a component
        into pieces that each hold an end), and every other component keeps
        its signature.
        """
        mmap, theta_w, theta_a = self.mmap, self.params.theta_w, self.params.theta_a
        edges, step, origin, keep = mmap.edges, mmap.step, mmap.origin, mmap.keep_w
        self._heavy.update(combinations(sorted(txn.items), 2))
        # The weight read now (`MindMap.weight_of`, inlined) is at most the stored one.
        self._heavy = {
            pair
            for pair in self._heavy
            if (conn := edges.get(pair)) is not None
            and conn.weight >= theta_w
            and (
                keep == 1
                or conn.weight * keep ** (step - max(conn.last_reinforced_at, origin)) >= theta_w
            )
        }
        kept = {
            (a, b)
            for a, b in self._heavy
            if theta_a <= 0.0 or min(mmap.get_activation(a), mmap.get_activation(b)) >= theta_a
        }
        changed = kept ^ self._kept
        if not changed:
            return
        adj = self._adj
        for a, b in changed:
            if (a, b) in kept:
                adj.setdefault(a, set()).add(b)
                adj.setdefault(b, set()).add(a)
            else:
                for x, y in ((a, b), (b, a)):
                    adj[x].discard(y)
                    if not adj[x]:
                        del adj[x]
        self._kept = kept

        sig_of, patterns = self._sig_of, self._patterns
        ends = {label for pair in changed for label in pair}
        for label in ends:
            patterns.discard(sig_of.pop(label, None))
        for sig in components(adj, ends & adj.keys()):
            patterns.add(sig)
            for label in sig:
                sig_of[label] = sig

    def _report(
        self, events: StepEvents, promotions: Set[Signature], lapsed: Set[Signature]
    ) -> None:
        """Log the step's events; pattern lines read the LTM as ltm_update
        stamped it.

        Inside the engine an open record is never promoted again: the STM
        promotes once per unbroken run of a signature, and the step where
        that run lapses also closes the record. So a promotion whose record
        has recurred is a reopening, and the records closed by this step
        are the lapsed ones that ltm_update stamped disappeared_at == step.
        """
        log = self.event_lines.append
        step = events.step
        for label in events.cells_created:
            log(f"{step} cell-created {label}")
        for a, b in events.edges_created:
            log(f"{step} edge-created {a} {b}")
        for a, b in events.edges_forgotten:
            log(f"{step} edge-forgotten {a} {b}")
        for label in events.cells_forgotten:
            log(f"{step} cell-forgotten {label}")
        for sig in sorted(promotions):
            kind = "reopened" if self._ltm[sig].recurrence_count > 1 else "promoted"
            log(f"{step} pattern-{kind} {'|'.join(sig)}")
        for sig in sorted(lapsed):
            record = self._ltm.get(sig)
            if record is not None and record.disappeared_at == step:
                log(f"{step} pattern-closed {'|'.join(sig)}")

    def _evaluate_queries(self, step: int) -> None:
        """Emit each query's next result; drop a query after its last one."""
        live: List[ContinuousQuery] = []
        for q in self.queries:
            w = self.mmap.get_weight(*q.target)
            self.emissions.append(QueryEmission(q, step, "absent" if w is None else repr(w)))
            q.emitted += 1
            if q.emitted < q.horizon:
                live.append(q)
        self.queries = live
