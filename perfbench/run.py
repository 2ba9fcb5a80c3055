#!/usr/bin/env python3
"""Seeded, stdlib-only benchmark of the mindstream CLI paths.

    python3 perfbench/run.py --workload ingest-grow --seed 1 --seconds 20 --trace 0

Run from a checkout that has `src/mindstream`. End-to-end metrics come from
`mindstream run` / `mindstream query`, called in-process through
`mindstream.cli.main`; one process, one thread, a closed loop with one client
and no pacing. `--trace 1` adds a separate traced phase that reports the
per-layer metrics instead. The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the lines above it list every
metric with its unit, the error rate and the output digests. The full result
and the spans go to `.perfbench-work/results/`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import checks
import gen
import speed
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

TAIL = 90  # op_ms_p90: with >= 100 samples, at least ten lie beyond it
MIN_OPS = 100
SETUP_REPEATS = 9
END_TO_END = {  # name -> unit; BENCHMARK.json holds the same list with bounds
    "ops_per_s": "ops/s",
    "op_ms_p50": "ms",
    f"op_ms_p{TAIL}": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

# Runs in a fresh interpreter: from `import mindstream.cli` until the first
# op can start. For `run`, that is the first Engine.ingest call, stopped there.
# The speed reference is timed just before and just after. Nothing but
# built-in modules is loaded before `start`, so no import is paid in advance.
SETUP_CHILD = r"""
import sys, time
sys.path.insert(0, sys.argv[1])
sys.path.append(sys.argv[2])
argv = sys.argv[3:]
import speed
before = speed.time_reference()
start = time.perf_counter()
import mindstream.cli as cli
if argv:
    from mindstream.engine import Engine
    class Ready(Exception):
        pass
    def first_op(self, txn):
        raise Ready(time.perf_counter())
    Engine.ingest = first_op
    try:
        cli.main(argv)
        raise SystemExit("run ended before its first transaction")
    except Ready as ready:
        end = ready.args[0]
else:
    end = time.perf_counter()
print(end - start, (before + speed.time_reference()) / 2)
"""


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _call_cli(argv: List[str]) -> tuple:
    """Run `mindstream <argv>` in-process: (exit code or None, stdout, start, end)."""
    import mindstream.cli  # looked up on each call, so a traced run sees its wrapper

    out = io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            rc = mindstream.cli.main(argv)
    except (Exception, SystemExit):
        traceback.print_exc()
        rc = None
    return rc, out.getvalue(), start, perf_counter()


class Run:
    """Ops, passes and speed samples of one measured phase."""

    def __init__(self) -> None:
        self.speed = speed.Speed()
        self.attempted = 0
        self.failed = 0
        self.ops: List[Tuple[float, float]] = []  # (start, ms) of each op that passed
        self.first_pass: List[Tuple[float, float]] = []
        # Ingest passes: (transactions, start, end, seconds spent on speed samples).
        self.passes: List[Tuple[int, float, float, float]] = []
        self.problems: List[str] = []
        self.digests: Dict[str, List[str]] = {}

    def op_ms(self, scaled: bool = True) -> List[float]:
        return [ms * self.speed.scale(t) if scaled else ms for t, ms in self.ops]

    def ops_per_s(self, scaled: bool = True) -> float:
        """Ingest: median over passes of transactions per `run` second.
        Query: invocations per second of invocation time."""
        if not self.passes:
            return len(self.ops) / (sum(self.op_ms(scaled)) / 1e3)
        return statistics.median(
            n / ((end - start - spent) * (self.speed.scale_between(start, end) if scaled else 1.0))
            for n, start, end, spent in self.passes
        )

    def fail(self, count: int, problems: List[str]) -> None:
        self.failed += count
        for p in problems:
            if p not in self.problems:
                self.problems.append(p)
                print(f"check failed: {p}", file=sys.stderr)

    def merge(self, other: "Run") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += [p for p in other.problems if p not in self.problems]
        for key, values in other.digests.items():
            mine = self.digests.setdefault(key, [])
            mine += [d for d in values if d not in mine]


class IngestWorkload:
    """One op is one Engine.ingest call inside `mindstream run`."""

    op_span = "engine.ingest"

    def __init__(self, work: Path, baskets, flags, check) -> None:
        self.txns = len(baskets)
        self.input = work / "input.txt"
        self.snapshot = work / "out.snap"
        self.events = work / "events.log"
        self.input.write_text("".join(gen.stream_lines(baskets)), encoding="utf-8")
        self.argv = ["run", "--input", str(self.input), "--snapshot", str(self.snapshot),
                     "--events", str(self.events)] + flags
        self.setup_argv = self.argv
        self.check = check
        # Bound now, before a traced run wraps them, so checks stay untraced.
        from mindstream.snapshot import parse_snapshot, render_snapshot

        self.parse, self.render = parse_snapshot, render_snapshot

    def step(self, run: Run) -> None:
        """One whole `run` call over the generated stream."""
        from mindstream.engine import Engine

        samples: List[Tuple[float, float]] = []
        original = Engine.ingest

        def timed(engine, txn):
            start = perf_counter()
            try:
                return original(engine, txn)
            finally:
                samples.append((start, (perf_counter() - start) * 1e3))
                run.speed.maybe_sample()

        Engine.ingest = timed
        spent = run.speed.spent_s
        try:
            gc.collect()
            rc, _, start, end = _call_cli(self.argv)
        finally:
            Engine.ingest = original
        spent = run.speed.spent_s - spent
        run.attempted += self.txns
        problems = [f"exit code {rc}"] if rc != 0 else []
        if not problems:
            snapshot = self.snapshot.read_text(encoding="utf-8")
            events = self.events.read_text(encoding="utf-8")
            problems = self.check(snapshot, events) + checks.check_round_trip(
                snapshot, self.parse, self.render
            )
            for key, path in (("snapshot_sha256", self.snapshot), ("events_sha256", self.events)):
                digests = run.digests.setdefault(key, [])
                if _sha256(path) not in digests:
                    digests.append(_sha256(path))
        if problems or len(samples) != self.txns:
            run.fail(self.txns, problems or [f"{len(samples)} of {self.txns} steps ran"])
            return
        run.ops += samples
        run.first_pass = run.first_pass or samples
        run.passes.append((self.txns, start, end, spent))


class QueryWorkload:
    """One op is one `mindstream query` invocation on a cold snapshot."""

    op_span = "cli"
    setup_argv: List[str] = []

    def __init__(self, seed: int, work: Path) -> None:
        spec = gen.query_cold_spec(seed)
        self.snapshot = work / "state.snap"
        self.snapshot.write_text(gen.render_spec(spec), encoding="utf-8")
        self.mix = gen.query_mix(spec, seed)
        self.expected = [checks.expected_answer(spec, q) for q in self.mix]
        self.next = 0

    def step(self, run: Run) -> None:
        i = self.next % len(self.mix)
        self.next += 1
        run.speed.maybe_sample()
        argv = ["query", "--snapshot", str(self.snapshot)] + self.mix[i]
        rc, out, start, end = _call_cli(argv)
        run.attempted += 1
        problems = [f"exit code {rc}"] if rc != 0 else checks.check_answer(out, self.expected[i])
        if problems:
            run.fail(1, [f"{' '.join(self.mix[i])}: {p}" for p in problems])
            return
        run.ops.append((start, (end - start) * 1e3))


def make_workload(name: str, seed: int, work: Path):
    if name == "ingest-grow":
        baskets = gen.grow_baskets(seed)
        cells, edges = gen.cooccurrence(baskets)
        return IngestWorkload(work, baskets, gen.GROW_FLAGS,
                              lambda snap, _events: checks.check_grow(snap, cells, edges))
    if name == "ingest-churn":
        return IngestWorkload(work, gen.churn_baskets(seed), gen.CHURN_FLAGS,
                              checks.check_churn)
    return QueryWorkload(seed, work)


WORKLOADS = ("ingest-grow", "ingest-churn", "query-cold")


def measure(workload, seconds: float, min_ops: int, tracer=None) -> Run:
    """Repeat ops until `seconds` have passed and at least `min_ops` ran."""
    run = Run()
    if tracer is not None:  # a span of its own, so no layer's self time holds it
        run.speed.sample = tracer.wrap("perfbench.speed", run.speed.sample, None)
    gc.collect()
    run.speed.sample()
    start = perf_counter()
    while perf_counter() - start < seconds or run.attempted < min_ops:
        workload.step(run)
    run.speed.sample()
    return run


def setup_seconds(workload) -> Tuple[float, float]:
    """(scaled, raw) median over fresh interpreters; the first, which
    compiles, is dropped."""
    raw, scaled = [], []
    for i in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), str(BENCH)] + workload.setup_argv,
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        seconds, ref_ms = map(float, done.stdout.split())
        if i:
            raw.append(seconds)
            scaled.append(seconds * speed.REF_MS / ref_ms)
    return statistics.median(scaled), statistics.median(raw)


def _tail(op_ms: List[float]) -> float:
    return statistics.quantiles(op_ms, n=100, method="inclusive")[TAIL - 1]


def run_untraced(workload, seconds: int, metrics: Dict, raw: Dict) -> Run:
    setup, raw["setup_s"] = setup_seconds(workload)
    run = measure(workload, seconds, MIN_OPS)
    for scaled, out in ((True, metrics), (False, raw)) if run.ops else ():
        op_ms = run.op_ms(scaled)
        out["ops_per_s"] = run.ops_per_s(scaled)
        out["op_ms_p50"] = statistics.median(op_ms)
        out[f"op_ms_p{TAIL}"] = _tail(op_ms)
    metrics["setup_s"] = setup
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return run


def run_traced(workload, seconds: int, metrics: Dict, spans_path: Path) -> Run:
    min_ops = len(gen.QUERY_KINDS)
    plain = measure(workload, seconds / 2, min_ops)
    tracer = tracing.Tracer(workload.op_span)
    uninstall = tracing.install(tracer)
    try:
        traced = measure(workload, seconds / 2, min_ops, tracer)
    finally:
        uninstall()
    tracer.write(str(spans_path))
    for span in tracer.absent:
        print(f"absent: {span} (its metrics are not reported)")
    plain.merge(traced)
    if not (plain.ops and traced.ops):
        return plain
    overhead = plain.ops_per_s() / traced.ops_per_s() - 1.0
    first = traced.first_pass or traced.ops
    growth_ms = [ms * traced.speed.scale(t) for t, ms in first]
    passes = max(1, len(traced.passes))
    samples = traced.speed.samples
    scale = traced.speed.scale_between(samples[0][0], samples[-1][0])
    metrics.update(
        tracing.layer_metrics(tracer, len(traced.ops), passes, growth_ms, overhead, scale)
    )
    return plain


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mindstream" / "cli.py").is_file():
        print(f"error: no mindstream sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    units = {**END_TO_END, **{n: unit for n, (unit, _, _) in tracing.LAYER_METRICS.items()}}

    tag = f"{args.workload}-seed{args.seed}"
    work = WORK / tag
    results = WORK / "results"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)
    metrics: Dict[str, float] = {}
    raw: Dict[str, float] = {}
    try:
        workload = make_workload(args.workload, args.seed, work)
        if args.trace:
            run = run_traced(workload, args.seconds, metrics, results / f"{tag}.spans.jsonl")
        else:
            run = run_untraced(workload, args.seconds, metrics, raw)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = run.failed == 0
    error_rate = run.failed / run.attempted
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    for name, value in raw.items():
        print(f"raw wall-clock {name} {value:.6g} {units[name]}")
    print(f"error_rate {error_rate:.6g} failed/attempted ({run.failed}/{run.attempted})")
    print(f"samples {len(run.ops)} ops; tail percentile p{TAIL}; "
          f"{len(run.speed.samples)} speed samples, median "
          f"{statistics.median(ms for _, ms in run.speed.samples):.4g} ms "
          f"(reference {speed.REF_MS} ms)")
    for key, digests in run.digests.items():
        print(f"{key} {' '.join(digests)}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "attempted": run.attempted,
        "failed": run.failed, "error_rate": error_rate, "problems": run.problems,
        "samples": len(run.ops), "tail_percentile": TAIL, "digests": run.digests,
        "metrics": metrics, "raw_wall_clock": raw,
        "speed_samples_ms": [ms for _, ms in run.speed.samples],
        "python": platform.python_version(), "machine": platform.machine(),
    }
    out = results / f"{tag}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"results {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
