"""Engine loop: ingestion, memory maintenance, events, continuous queries.

One Engine owns all mutable state, including the one mind-map that each
synchronization step updates in place; every ingested transaction runs the
full pipeline (dynamics step, skeleton, pattern detection, STM/LTM update,
event reporting, continuous-query evaluation). Queries only read the map
after the step has committed, so evaluation order never affects the state.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from typing import Dict, List, Set, Tuple, ValuesView

from .dynamics import StepEvents, file_due, ingest_transaction, pop_due
from .memory import LTMRecord, Signature, STMEntry, ltm_update, stm_tick
from .model import EngineParams, MindMap, Pair, Transaction, canonical_pair
from .skeleton import components
from .snapshot import EngineState, _fmt_signature, _quote


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
        # The kept skeleton, maintained by _update_skeleton: the edges at or
        # above theta_w, the cells below theta_a, each dark cell's parked heavy
        # pairs, the wheel of due threshold crossings, the kept pairs, their
        # adjacency, and each kept node's component signature; the signatures.
        # Heavy and kept pairs are dict keys: a set's table size depends on
        # string hashing, so its memory would vary with the hash seed.
        self._heavy: Dict[Pair, None] = {}
        self._dark: Set[str] = set()
        self._parked: Dict[str, Set[Pair]] = {}
        self._wheel: Dict[int, List[Tuple]] = {}
        self._kept: Dict[Pair, None] = {}
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

        self._update_skeleton(txn, events)
        current = self._patterns
        lapsed = self.stm.keys() - current
        self.stm, promotions = stm_tick(
            self.stm, current, step, self.params.promote_after
        )
        ltm_update(self._ltm, promotions, lapsed, step)

        self._report(txn, events, promotions, lapsed)
        self._evaluate_queries(step)
        return events

    def _update_skeleton(self, txn: Transaction, events: StepEvents) -> None:
        """Bring the kept skeleton and its signatures to the step that
        ingested `txn`.

        A step raises only what it touches and lowers only what it does not,
        so a touched pair can only join `_heavy` and a touched cell can only
        leave `_dark`. Every other change is a crossing that `_wheel` has due:
        a pair that joins `_heavy`, and a cell born lit or leaving `_dark`
        when theta_a > 0, is filed at the step it crosses (see `pop_due`). Only the
        pairs that entered or left the kept set change the adjacency, and
        only their ends start a new search: every node of a component such a
        pair touches is reachable from one of them (a removal splits a
        component into pieces that each hold an end), and every other
        component keeps its signature.
        """
        mmap, theta_w, theta_a = self.mmap, self.params.theta_w, self.params.theta_a
        step, cells, edges = mmap.step, mmap.cells, mmap.edges
        heavy, dark, wheel = self._heavy, self._dark, self._wheel
        keep_w, keep_a, log_w = mmap.keep_w, mmap.keep_a, mmap.log_w
        log_a = mmap.log_a if theta_a > 0.0 else 0.0  # theta_w > epsilon >= 0
        ends: Set[str] = set()  # of the pairs that entered or left the kept set
        for label in txn.items:
            if (cell := cells.get(label)) is None:  # forgotten in this step
                continue
            if (a := cell.activation) < theta_a:
                self._shade(label, True, ends)
            elif label in dark or cell.created_at == step:
                self._shade(label, False, ends)
                if log_a:
                    file_due(wheel, (label,), step, a, theta_a, keep_a, log_a)
        for pair in combinations(sorted(txn.items), 2):
            conn = edges.get(pair)
            if conn is not None and (w := conn.weight) >= theta_w and pair not in heavy:
                heavy[pair] = None
                self._place(pair, ends)
                if log_w:
                    file_due(wheel, (pair,), step, w, theta_w, keep_w, log_w)
        crossed_pairs, crossed_cells = pop_due(mmap, wheel, theta_w, theta_a)
        for pair in chain(events.edges_forgotten, crossed_pairs):
            if pair in heavy:
                del heavy[pair]
                self._place(pair, ends)
        for label in crossed_cells:
            self._shade(label, True, ends)
        dark.difference_update(events.cells_forgotten)
        if not ends:
            return

        adj, sig_of, patterns = self._adj, self._sig_of, self._patterns
        for label in ends:
            patterns.discard(sig_of.pop(label, None))
        for sig in components(adj, ends & adj.keys()):
            patterns.add(sig)
            for label in sig:
                sig_of[label] = sig

    def _shade(self, label: str, dark: bool, ends: Set[str]) -> None:
        """Put `label` in the dark set or take it out, and place the pairs
        that this moves: its kept pairs, or the pairs parked under it."""
        if dark == (label in self._dark):
            return
        if dark:
            self._dark.add(label)
            moved = [canonical_pair(label, other) for other in self._adj.get(label, ())]
        else:
            self._dark.remove(label)
            moved = self._parked.pop(label, ())
        for pair in moved:
            self._place(pair, ends)

    def _place(self, pair: Pair, ends: Set[str]) -> None:
        """Move `pair` to where `_heavy` and `_dark` now put it: the kept set
        if it is heavy with no dark end, else parked under a dark end if it
        is heavy, else nowhere. A pair that enters or leaves the kept set
        adds its ends to `ends`."""
        kept, adj, parked, dark = self._kept, self._adj, self._parked, self._dark
        for label in pair:
            if pair in parked.get(label, ()):
                parked[label].remove(pair)
                if not parked[label]:
                    del parked[label]
        keep = pair in self._heavy
        if keep and (pair[0] in dark or pair[1] in dark):
            parked.setdefault(pair[0] if pair[0] in dark else pair[1], set()).add(pair)
            keep = False
        if keep == (pair in kept):
            return
        ends.update(pair)
        if keep:
            kept[pair] = None
            for x, y in (pair, pair[::-1]):
                adj.setdefault(x, set()).add(y)
        else:
            del kept[pair]
            for x, y in (pair, pair[::-1]):
                adj[x].discard(y)
                if not adj[x]:
                    del adj[x]

    def _report(
        self,
        txn: Transaction,
        events: StepEvents,
        promotions: Set[Signature],
        lapsed: Set[Signature],
    ) -> None:
        """Log the step's events, with labels and signatures written as in a
        snapshot; pattern lines read the LTM as ltm_update stamped it.

        Inside the engine an open record is never promoted again: the STM
        promotes once per unbroken run of a signature, and the step where
        that run lapses also closes the record. So a promotion whose record
        has recurred is a reopening, and the records closed by this step
        are the lapsed ones that ltm_update stamped disappeared_at == step.
        """
        log, q = self.event_lines.append, _quote
        step = events.step
        # Created records hold this transaction's labels; when all are letters
        # and digits, as is usual, none needs quotes, and no line checks.
        plain = all(map(str.isalnum, txn.items))
        for label in events.cells_created:
            log(f"{step} cell-created {label if plain else q(label)}")
        for a, b in events.edges_created:
            log(f"{step} edge-created {a if plain else q(a)} {b if plain else q(b)}")
        for a, b in events.edges_forgotten:
            log(f"{step} edge-forgotten {q(a)} {q(b)}")
        for label in events.cells_forgotten:
            log(f"{step} cell-forgotten {q(label)}")
        for sig in sorted(promotions):
            kind = "reopened" if self._ltm[sig].recurrence_count > 1 else "promoted"
            log(f"{step} pattern-{kind} {_fmt_signature(sig)}")
        for sig in sorted(lapsed):
            record = self._ltm.get(sig)
            if record is not None and record.disappeared_at == step:
                log(f"{step} pattern-closed {_fmt_signature(sig)}")

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
