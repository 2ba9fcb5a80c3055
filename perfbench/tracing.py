"""Span tracing around the public names of each mindstream module.

Wrappers are installed only for the traced run and removed afterwards. They
time calls from outside the module; nothing inside mindstream changes. Spans
are kept in memory as (name, start, end, parent, op id) and written out when
the run ends. A name that no longer exists (after a refactor, say) is skipped
and the metrics built on it are reported as absent.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

# (module, attribute path, span name). A span name ending in "." takes the
# query kind as a suffix.
TARGETS = [
    ("model", "MindMap.copy", "model.copy"),
    ("dynamics", "ingest_transaction", "dynamics.ingest_transaction"),
    ("dynamics", "decay_pass", "dynamics.decay_pass"),
    ("dynamics", "prune_forgotten", "dynamics.prune_forgotten"),
    ("skeleton", "extract_skeleton", "skeleton.extract"),
    ("skeleton", "strongest_subgraphs", "skeleton.strongest"),
    ("memory", "detect_patterns", "memory.detect_patterns"),
    ("memory", "stm_tick", "memory.stm_tick"),
    ("memory", "ltm_update", "memory.ltm_update"),
    ("engine", "Engine.ingest", "engine.ingest"),
    ("stream", "read_transactions", "stream.read"),
    ("snapshot", "parse_snapshot", "snapshot.parse"),
    ("snapshot", "render_snapshot", "snapshot.render"),
    ("queries", "run_static_query", "queries."),
    ("cli", "main", "cli"),
]

Span = Tuple[str, float, float, Optional[int], Optional[int]]


class Tracer:
    """In-memory span recorder plus the counts taken at the same boundaries."""

    def __init__(self, op_span: str) -> None:
        self.op_span = op_span  # each call of this span is one op
        self.ops = 0
        self.spans: List[Optional[Span]] = []
        self.stack: List[int] = []
        self.op: Optional[int] = None
        self.count: Counter = Counter()
        self.peak: Counter = Counter()
        self.last: Dict[str, float] = {}
        self.touched_shares: List[float] = []
        self.absent: List[str] = []

    def _enter(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        return idx

    def _leave(self, idx: int, name: str, start: float) -> None:
        end = perf_counter()
        self.stack.pop()
        parent = self.stack[-1] if self.stack else None
        self.spans[idx] = (name, start, end, parent, self.op)

    def wrap(self, name: str, fn: Callable, after: Optional[Callable]) -> Callable:
        def traced(*args, **kwargs):
            span = name + args[1][0] if name.endswith(".") else name
            if span == self.op_span:
                self.op, self.ops = self.ops, self.ops + 1
            idx = self._enter()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(idx, span, start)
                if span == self.op_span:
                    self.op = None
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def wrap_iter(self, name: str, fn: Callable, after: Callable) -> Callable:
        """Time each step of a generator: its busy time, not its lifetime."""

        def traced(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            while True:
                idx = self._enter()
                start = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._leave(idx, name, start)
                after(self, args, item)
                yield item

        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


# --- counts taken at the span boundaries -----------------------------------


def _after_copy(t: Tracer, args, result) -> None:
    t.count["model.copy.objects"] += len(result.cells) + len(result.edges)


def _after_ingest_transaction(t: Tracer, args, result) -> None:
    mmap, events = result
    m = len(args[1].items)
    pairs = m * (m - 1) // 2
    t.count["dynamics.pairs_touched"] += pairs
    t.count["dynamics.edges_forgotten"] += len(events.edges_forgotten)
    t.count["dynamics.cells_forgotten"] += len(events.cells_forgotten)
    size = len(mmap.cells) + len(mmap.edges)
    t.touched_shares.append((m + pairs) / size if size else 0.0)
    _map_peaks(t, mmap)


def _map_peaks(t: Tracer, mmap) -> None:
    t.peak["model.edges_peak"] = max(t.peak["model.edges_peak"], len(mmap.edges))
    t.peak["model.cells_peak"] = max(t.peak["model.cells_peak"], len(mmap.cells))


def _after_extract(t: Tracer, args, result) -> None:
    t.count["skeleton.edges_scanned"] += len(args[0].edges)
    t.count["skeleton.edges_kept"] += len(result.edges)


def _after_stm_tick(t: Tracer, args, result) -> None:
    t.count["memory.promotions"] += len(result[1])


def _after_ltm_update(t: Tracer, args, result) -> None:
    t.count["memory.ltm_records_copied"] += len(args[0])
    t.last["memory.ltm_records"] = len(result)


def _after_engine_ingest(t: Tracer, args, result) -> None:
    engine = args[0]
    t.last["engine.events"] = len(engine.event_lines)
    t.last["engine.emissions"] = len(engine.emissions)


def _after_read(t: Tracer, args, txn) -> None:
    t.count["stream.records"] += sum(txn.items.values())


def _after_parse(t: Tracer, args, state) -> None:
    t.last["snapshot.bytes"] = len(args[0].encode("utf-8"))
    _map_peaks(t, state.mmap)


def _after_render(t: Tracer, args, text) -> None:
    t.last["snapshot.bytes"] = len(text.encode("utf-8"))


AFTER = {
    "model.copy": _after_copy,
    "dynamics.ingest_transaction": _after_ingest_transaction,
    "skeleton.extract": _after_extract,
    "memory.stm_tick": _after_stm_tick,
    "memory.ltm_update": _after_ltm_update,
    "engine.ingest": _after_engine_ingest,
    "stream.read": _after_read,
    "snapshot.parse": _after_parse,
    "snapshot.render": _after_render,
}


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every target that exists; return a function that undoes it.

    Modules bind names with `from .x import y`, so a function is replaced in
    every loaded mindstream module that holds it, not only where it is defined.
    """
    undo = []
    for mod_name, path, span in TARGETS:
        try:
            owner = importlib.import_module(f"mindstream.{mod_name}")
        except ModuleNotFoundError:
            owner = None
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None)
        if original is None:
            tracer.absent.append(span)
            continue
        if span == "stream.read":
            wrapped = tracer.wrap_iter(span, original, AFTER[span])
        else:
            wrapped = tracer.wrap(span, original, AFTER.get(span))
        if outer:
            undo.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            continue
        for mod in [m for n, m in list(sys.modules.items()) if n.partition(".")[0] == "mindstream"]:
            for name, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, name, original))
                    setattr(mod, name, wrapped)

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


# --- per-layer metrics -------------------------------------------------------

# name -> (unit, better, span the metric is built on). Times are self times:
# a span's duration minus that of its direct children.
LAYER_METRICS = {
    "model.copy.ms": ("ms/op", "lower", "model.copy"),
    "model.copy.calls": ("calls/op", "lower", "model.copy"),
    "model.copy.objects": ("objects/op", "lower", "model.copy"),
    "model.edges_peak": ("count", "lower", "dynamics.ingest_transaction"),
    "model.cells_peak": ("count", "lower", "dynamics.ingest_transaction"),
    "dynamics.ingest_transaction.self_ms": ("ms/op", "lower", "dynamics.ingest_transaction"),
    "dynamics.decay_pass.ms": ("ms/op", "lower", "dynamics.decay_pass"),
    "dynamics.prune_forgotten.ms": ("ms/op", "lower", "dynamics.prune_forgotten"),
    "dynamics.pairs_touched": ("pairs/op", "lower", "dynamics.ingest_transaction"),
    "dynamics.touched_share": ("ratio", "lower", "dynamics.ingest_transaction"),
    "dynamics.edges_forgotten": ("count", "lower", "dynamics.ingest_transaction"),
    "dynamics.cells_forgotten": ("count", "lower", "dynamics.ingest_transaction"),
    "skeleton.extract.ms": ("ms/op", "lower", "skeleton.extract"),
    "skeleton.extract.calls": ("calls/op", "lower", "skeleton.extract"),
    "skeleton.edges_scanned": ("edges/op", "lower", "skeleton.extract"),
    "skeleton.kept_share": ("ratio", "higher", "skeleton.extract"),
    "skeleton.strongest.ms": ("ms/op", "lower", "skeleton.strongest"),
    "memory.detect_patterns.ms": ("ms/op", "lower", "memory.detect_patterns"),
    "memory.stm_tick.ms": ("ms/op", "lower", "memory.stm_tick"),
    "memory.ltm_update.ms": ("ms/op", "lower", "memory.ltm_update"),
    "memory.ltm_records_copied": ("records/op", "lower", "memory.ltm_update"),
    "memory.promotions": ("count", "higher", "memory.stm_tick"),
    "memory.ltm_records": ("count", "higher", "memory.ltm_update"),
    "engine.ingest.self_ms": ("ms/op", "lower", "engine.ingest"),
    "engine.events": ("count", "higher", "engine.ingest"),
    "engine.emissions": ("count", "higher", "engine.ingest"),
    "engine.step_ms_growth": ("ratio", "lower", None),
    "stream.busy_ms": ("ms/op", "lower", "stream.read"),
    "stream.records": ("records/op", "higher", "stream.read"),
    "stream.records_per_s": ("1/s", "higher", "stream.read"),
    "snapshot.parse.ms": ("ms/call", "lower", "snapshot.parse"),
    "snapshot.render.ms": ("ms/call", "lower", "snapshot.render"),
    "snapshot.bytes": ("bytes", "lower", "snapshot.parse"),
    "queries.weight.ms": ("ms/call", "lower", "queries."),
    "queries.activation.ms": ("ms/call", "lower", "queries."),
    "queries.skeleton.ms": ("ms/call", "lower", "queries."),
    "queries.rules.ms": ("ms/call", "lower", "queries."),
    "queries.patterns.ms": ("ms/call", "lower", "queries."),
    "queries.strongest.ms": ("ms/call", "lower", "queries."),
    "queries.ltm.ms": ("ms/call", "lower", "queries."),
    "cli.self_ms": ("ms/call", "lower", "cli"),
    "trace.overhead_share": ("ratio", "lower", None),
}


def _growth(op_ms: List[float]) -> float:
    """Median op time of the last quarter over that of the first quarter."""
    q = max(1, len(op_ms) // 4)
    return statistics.median(op_ms[-q:]) / statistics.median(op_ms[:q])


def layer_metrics(
    tracer: Tracer,
    ops: int,
    passes: int,
    op_ms: List[float],
    overhead: float,
    scale: float,
) -> Dict[str, float]:
    """Aggregate the spans of `passes` traced passes holding `ops` ops.

    Work and time are per op; outcome counts (forgotten, promoted, events)
    are per pass; sizes are the last or peak value seen. Every span is
    multiplied by the one `scale` to the reference speed, so that a parent's
    self time stays its duration minus its children's.
    """
    self_ms: Counter = Counter()
    calls: Counter = Counter()
    for name, start, end, parent, _ in tracer.spans:
        dur = (end - start) * 1e3 * scale
        self_ms[name] += dur
        calls[name] += 1
        if parent is not None:
            self_ms[tracer.spans[parent][0]] -= dur

    def per_call(span: str) -> float:
        return self_ms[span] / calls[span] if calls[span] else 0.0

    c = tracer.count
    scanned = c["skeleton.edges_scanned"]
    busy_s = self_ms["stream.read"] / 1e3
    shares = tracer.touched_shares
    out = {
        "model.copy.ms": self_ms["model.copy"] / ops,
        "model.copy.calls": calls["model.copy"] / ops,
        "model.copy.objects": c["model.copy.objects"] / ops,
        "model.edges_peak": tracer.peak["model.edges_peak"],
        "model.cells_peak": tracer.peak["model.cells_peak"],
        "dynamics.ingest_transaction.self_ms": self_ms["dynamics.ingest_transaction"] / ops,
        "dynamics.decay_pass.ms": self_ms["dynamics.decay_pass"] / ops,
        "dynamics.prune_forgotten.ms": self_ms["dynamics.prune_forgotten"] / ops,
        "dynamics.pairs_touched": c["dynamics.pairs_touched"] / ops,
        "dynamics.touched_share": statistics.fmean(shares) if shares else 0.0,
        "dynamics.edges_forgotten": c["dynamics.edges_forgotten"] / passes,
        "dynamics.cells_forgotten": c["dynamics.cells_forgotten"] / passes,
        "skeleton.extract.ms": self_ms["skeleton.extract"] / ops,
        "skeleton.extract.calls": calls["skeleton.extract"] / ops,
        "skeleton.edges_scanned": scanned / ops,
        "skeleton.kept_share": c["skeleton.edges_kept"] / scanned if scanned else 0.0,
        "skeleton.strongest.ms": self_ms["skeleton.strongest"] / ops,
        "memory.detect_patterns.ms": self_ms["memory.detect_patterns"] / ops,
        "memory.stm_tick.ms": self_ms["memory.stm_tick"] / ops,
        "memory.ltm_update.ms": self_ms["memory.ltm_update"] / ops,
        "memory.ltm_records_copied": c["memory.ltm_records_copied"] / ops,
        "memory.promotions": c["memory.promotions"] / passes,
        "memory.ltm_records": tracer.last.get("memory.ltm_records", 0),
        "engine.ingest.self_ms": self_ms["engine.ingest"] / ops,
        "engine.events": tracer.last.get("engine.events", 0),
        "engine.emissions": tracer.last.get("engine.emissions", 0),
        "engine.step_ms_growth": _growth(op_ms),
        "stream.busy_ms": self_ms["stream.read"] / ops,
        "stream.records": c["stream.records"] / ops,
        "stream.records_per_s": c["stream.records"] / busy_s if busy_s else 0.0,
        "snapshot.parse.ms": per_call("snapshot.parse"),
        "snapshot.render.ms": per_call("snapshot.render"),
        "snapshot.bytes": tracer.last.get("snapshot.bytes", 0),
        "cli.self_ms": per_call("cli"),
        "trace.overhead_share": overhead,
    }
    for name in LAYER_METRICS:
        if name.startswith("queries."):
            out[name] = per_call(name[: -len(".ms")])
    return {
        name: out[name]
        for name, (_, _, span) in LAYER_METRICS.items()
        if span not in tracer.absent
    }
