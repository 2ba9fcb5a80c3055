"""Engine loop: ingestion, memory maintenance, events, continuous queries.

One Engine owns all mutable state, including the one mind-map that each
synchronization step updates in place; every ingested transaction runs the
full pipeline (dynamics step, skeleton, pattern detection, STM/LTM update,
event reporting, continuous-query evaluation). Queries only read the map
after the step has committed, so evaluation order never affects the state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, ValuesView

from .dynamics import StepEvents, ingest_transaction
from .memory import LTMRecord, Signature, STMEntry, detect_patterns, ltm_update, stm_tick
from .model import EngineParams, MindMap, Pair, Transaction, canonical_pair
from .skeleton import extract_skeleton, strongest_subgraphs
from .snapshot import EngineState


@dataclass
class ContinuousQuery:
    """A standing query evaluated across future synchronization steps.

    trace-edge emits (step, weight-or-None) after each of the next
    `horizon` steps; strongest-subgraphs emits once, after the next step.
    """

    kind: str  # "trace-edge" | "strongest-subgraphs"
    target: Optional[Pair] = None
    horizon: int = 1
    top_k: int = 3
    emitted: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("trace-edge", "strongest-subgraphs"):
            raise ValueError(f"unknown query kind {self.kind!r}")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.kind == "trace-edge":
            if self.target is None:
                raise ValueError("trace-edge needs a target pair")
            self.target = canonical_pair(*self.target)


@dataclass
class QueryEmission:
    query: ContinuousQuery
    step: int
    text: str


def _sig_text(sig: Signature) -> str:
    return "|".join(sig)


class Engine:
    def __init__(self, params: EngineParams = EngineParams()):
        self.params = params
        self.mmap = MindMap()
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

        skel = extract_skeleton(self.mmap, self.params.theta_w, self.params.theta_a)
        current = detect_patterns(skel)
        self.stm, promotions = stm_tick(
            self.stm, current, step, self.params.promote_after
        )
        ltm_update(self._ltm, promotions, current, step)

        self._report(events, promotions)
        self._evaluate_queries(step)
        return events

    def _report(self, events: StepEvents, promotions: Set[Signature]) -> None:
        """Log the step's events; pattern lines read the LTM as ltm_update
        stamped it.

        Inside the engine an open record is never promoted again: the STM
        promotes once per unbroken run of a signature, and the step where
        that run lapses also closes the record. So a promotion whose record
        has recurred is a reopening, and the records closed by this step
        are exactly those stamped disappeared_at == step.
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
            log(f"{step} pattern-{kind} {_sig_text(sig)}")
        closed = [sig for sig, r in self._ltm.items() if r.disappeared_at == step]
        for sig in sorted(closed):
            log(f"{step} pattern-closed {_sig_text(sig)}")

    def _evaluate_queries(self, step: int) -> None:
        for q in self.queries:
            if q.emitted >= (q.horizon if q.kind == "trace-edge" else 1):
                continue
            if q.kind == "trace-edge":
                a, b = q.target
                w = self.mmap.get_weight(a, b)
                text = "absent" if w is None else repr(w)
                self.emissions.append(QueryEmission(q, step, text))
                q.emitted += 1
            else:
                comps = strongest_subgraphs(self.mmap, self.params.theta_w, q.top_k)
                parts = [
                    "[" + _sig_text(tuple(sorted(c.nodes))) + "]" for c in comps
                ] or ["none"]
                self.emissions.append(QueryEmission(q, step, " ".join(parts)))
                q.emitted += 1
