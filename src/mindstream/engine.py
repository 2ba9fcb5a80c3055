"""Engine loop: ingestion, memory maintenance, events, continuous queries.

One Engine owns all mutable state, including the one mind-map that each
synchronization step updates in place; every ingested transaction runs the
full pipeline (dynamics step, skeleton, pattern detection, STM/LTM update,
event reporting, continuous-query evaluation). Queries only read the map
after the step has committed, so evaluation order never affects the state.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, List, Optional, Set, Tuple, ValuesView

from .dynamics import StepEvents, file_due, ingest_transaction, pop_due
from .memory import Record, Signature, ltm_update, stm_tick
from .model import EngineParams, MindMap, Pair, Transaction, canonical_pair, validate_label
from .skeleton import components
from .snapshot import EngineState, _fmt_signature, _quote


class Engine:
    def __init__(self, params: EngineParams = EngineParams()):
        self.params = params
        self.mmap = MindMap()
        # The kept skeleton, maintained by _update_skeleton: the cells below
        # theta_a, the wheel of due threshold crossings, and the adjacency of
        # the heavy pairs (at or above theta_w). A kept pair is a heavy pair
        # with no dark end. The STM maps the skeleton's patterns to their
        # first-seen steps; `state` derives each one's run.
        self._dark: Set[str] = set()
        self._wheel: Dict[int, List[Tuple]] = {}
        self._adj: Dict[str, Set[str]] = {}
        self.stm: Dict[Signature, int] = {}
        self._ltm: Dict[Signature, Record] = {}
        self.event_lines: List[str] = []
        # (after, last step, pair) per standing trace; an emission is (step, pair, text).
        self.queries: List[Tuple[int, int, Pair]] = []
        self.emissions: List[Tuple[int, Pair, str]] = []

    @property
    def step(self) -> int:
        return self.mmap.step

    @property
    def ltm(self) -> ValuesView[Record]:
        """The long-term records; `state.ltm` holds them keyed by signature."""
        return self._ltm.values()

    @property
    def state(self) -> EngineState:
        stm = {sig: (first, self.step - first + 1) for sig, first in self.stm.items()}
        return EngineState(self.mmap, self.params, stm, self._ltm)

    def register_query(self, a: str, b: str, horizon: int = 1, after: Optional[int] = None):
        """Trace the edge (a, b): after each of the `horizon` steps that follow
        step `after` (by default the current one), emit its weight, or "absent"
        while the edge is not in the map."""
        pair = canonical_pair(validate_label(a), validate_label(b))
        now = self.step
        after = now if after is None else after
        if type(horizon) is not int or horizon < 1:  # a bool is not a step count
            raise ValueError(f"horizon must be an int >= 1, got {horizon!r}")
        if type(after) is not int or after < now:
            raise ValueError(f"after must be an int >= the current step {now}, got {after!r}")
        self.queries.append((after, after + horizon, pair))

    def ingest(self, txn: Transaction) -> StepEvents:
        self.mmap, events = ingest_transaction(self.mmap, txn, self.params)
        step = self.mmap.step

        lapsed = self._update_skeleton(txn, events)
        _, promotions = stm_tick(self.stm, step, self.params.promote_after)
        ltm_update(self._ltm, promotions, lapsed, step)

        self._report(txn, events, promotions, lapsed)
        if self.queries:
            self._evaluate_queries(step)
        return events

    def _update_skeleton(self, txn: Transaction, events: StepEvents) -> Set[Signature]:
        """Bring the kept skeleton and its signatures to the step that
        ingested `txn`; returns the signatures that lapsed in it.

        A step raises only what it touches and lowers only what it does not, so
        a touched pair can only become heavy and a touched cell can only leave
        `_dark`; `events` lists the touched pairs, created and reinforced. Every
        other change is a crossing that `_wheel` has due: a pair that becomes
        heavy, and a cell born lit or leaving `_dark` when theta_a > 0, is
        filed at the step it crosses (see `pop_due`). At theta_a = 0 no cell
        is dark or ever due, so the per-cell pass is skipped. `_adj` links the
        heavy pairs and the search skips dark cells, so only the ends of a
        pair linked or unlinked, and a cell that changed shade with its heavy
        neighbours, start a new search: every node of a component that such a
        change touches is reachable from one of them (a removal splits a
        component into pieces that each hold one), and every other component
        keeps its signature. A lit cell whose heavy pairs all have a dark end
        is a singleton, not a pattern. The STM holds exactly the patterns, and
        no two share a node, so the step can change only those holding an end:
        `gone`. The STM gains the `found` ones not gone and loses the gone ones
        not found; a found one holds an end, so an unchanged one keeps its run.
        """
        mmap, theta_w, theta_a = self.mmap, self.params.theta_w, self.params.theta_a
        step, cells, edges = mmap.step, mmap.cells, mmap.edges
        dark, wheel, link = self._dark, self._wheel, self._link
        keep_w, keep_a = mmap.keep_w, mmap.keep_a
        ends: Set[str] = set()  # of the pairs linked or unlinked, and the shaded cells
        for label in txn.items if theta_a > 0 else ():  # at 0 no cell is ever dark
            if (cell := cells.get(label)) is None:  # forgotten in this step
                continue
            if (a := cell[0]) < theta_a:
                self._shade(label, True, ends)
            elif label in dark or cell[1] == step:
                self._shade(label, False, ends)
                file_due(wheel, (label,), step, a, theta_a, keep_a)
        # New edges share one stored birth weight, so one compare decides all.
        created = events.edges_created
        born = edges.get(created[0]) if created else None  # gone if born below epsilon
        rising = created if born is not None and born[0] >= theta_w else []
        for pair in chain(rising, events.edges_reinforced):
            if (w := edges[pair][0]) >= theta_w and link(pair, True, ends):
                file_due(wheel, (pair,), step, w, theta_w, keep_w)
        crossed_pairs, crossed_cells = pop_due(mmap, wheel, theta_w, theta_a)
        for pair in chain(events.edges_forgotten, crossed_pairs):
            link(pair, False, ends)
        for label in crossed_cells:
            self._shade(label, True, ends)
        dark.difference_update(events.cells_forgotten)
        if not ends:
            return set()

        adj, stm = self._adj, self.stm
        gone = {sig for sig in stm if not ends.isdisjoint(sig)}
        starts = [x for x in ends if x in adj and x not in dark]
        found = {sig for sig in components(adj, starts, dark) if len(sig) > 1}
        for sig in found - gone:
            stm[sig] = step
        lapsed = gone - found
        for sig in lapsed:
            del stm[sig]
        return lapsed

    def _shade(self, label: str, dark: bool, ends: Set[str]) -> None:
        """Put `label` in `_dark` or take it out; a cell that moves adds
        itself and its heavy neighbours to `ends`."""
        if dark != (label in self._dark):
            self._dark ^= {label}
            ends.add(label)
            ends.update(self._adj.get(label, ()))

    def _link(self, pair: Pair, heavy: bool, ends: Set[str]) -> bool:
        """Link `pair` in `_adj` if it is `heavy`, else unlink it; a pair
        that moves adds its ends to `ends`. Returns whether it moved."""
        a, b = pair
        adj = self._adj
        if heavy == (b in adj.get(a, ())):
            return False
        ends.update(pair)
        for x, y in (pair, (b, a)):
            if heavy:
                adj.setdefault(x, set()).add(y)
            else:
                adj[x].remove(y)
                if not adj[x]:
                    del adj[x]
        return True

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
        s = f"{step} "  # every line starts with the step, formatted once
        # Created records hold this transaction's labels; when all are letters
        # and digits, as is usual, none needs quotes, and no line checks.
        plain = all(map(str.isalnum, txn.items))
        for label in events.cells_created:
            log(f"{s}cell-created {label if plain else q(label)}")
        for a, b in events.edges_created:
            log(f"{s}edge-created {a if plain else q(a)} {b if plain else q(b)}")
        for a, b in events.edges_forgotten:
            log(f"{s}edge-forgotten {q(a)} {q(b)}")
        for label in events.cells_forgotten:
            log(f"{s}cell-forgotten {q(label)}")
        for sig in sorted(promotions):
            kind = "reopened" if self._ltm[sig].recurrence_count > 1 else "promoted"
            log(f"{s}pattern-{kind} {_fmt_signature(sig)}")
        for sig in sorted(lapsed):
            record = self._ltm.get(sig)
            if record is not None and record.disappeared_at == step:
                log(f"{s}pattern-closed {_fmt_signature(sig)}")

    def _evaluate_queries(self, step: int) -> None:
        """Emit each started trace's result; drop those whose last step this is."""
        edges, weight, emit = self.mmap.edges, self.mmap.weight_of, self.emissions.append
        for after, _, pair in self.queries:
            if after < step:
                edge = edges.get(pair)
                emit((step, pair, "absent" if edge is None else repr(weight(edge))))
        self.queries = [entry for entry in self.queries if entry[1] > step]
