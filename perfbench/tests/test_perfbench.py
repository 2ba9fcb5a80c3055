"""Tests of the benchmark itself: generators, output checks and tracing.

    python3 -m unittest discover -s perfbench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from mindstream import cli  # noqa: E402
from mindstream.engine import Engine  # noqa: E402
from mindstream.model import EngineParams, Transaction  # noqa: E402
from mindstream.snapshot import parse_snapshot, render_snapshot  # noqa: E402


def run_cli(tmp: Path, baskets, flags):
    """`mindstream run` over generated baskets; returns (snapshot, events)."""
    (tmp / "in.txt").write_text("".join(gen.stream_lines(baskets)), encoding="utf-8")
    argv = ["run", "--input", str(tmp / "in.txt"), "--snapshot", str(tmp / "s.snap"),
            "--events", str(tmp / "e.log")] + flags
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    return (tmp / "s.snap").read_text(encoding="utf-8"), (tmp / "e.log").read_text(encoding="utf-8")


def query(snapshot: Path, args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["query", "--snapshot", str(snapshot)] + args) == 0
    return out.getvalue()


class GeneratorTests(unittest.TestCase):
    def test_same_seed_gives_identical_input(self):
        for make in (gen.grow_baskets, gen.churn_baskets):
            self.assertEqual(gen.stream_lines(make(7)), gen.stream_lines(make(7)))
            self.assertNotEqual(make(7), make(8))
        a, b = gen.query_cold_spec(7), gen.query_cold_spec(7)
        self.assertEqual(gen.render_spec(a), gen.render_spec(b))
        self.assertEqual(gen.query_mix(a, 7), gen.query_mix(b, 7))
        self.assertNotEqual(gen.render_spec(a), gen.render_spec(gen.query_cold_spec(8)))

    def test_grow_sizes(self):
        cells, edges = gen.cooccurrence(gen.grow_baskets(1))
        self.assertGreater(len(edges), 12_000)
        self.assertGreater(len(cells), 1_400)

    def test_query_cold_snapshot_parses_and_round_trips(self):
        text = gen.render_spec(gen.query_cold_spec(3))
        state = parse_snapshot(text)
        self.assertEqual(render_snapshot(state), text)
        self.assertEqual(len(state.mmap.edges), gen.QC_EDGES)
        self.assertEqual(len(state.ltm), gen.QC_LTM)

    def test_churn_closes_and_reopens_an_ltm_record(self):
        # The first group returns after CHURN_GROUPS periods; stop soon after.
        prefix = gen.churn_baskets(1)[: gen.CHURN_PERIOD * gen.CHURN_GROUPS + 60]
        engine = Engine(EngineParams())
        for ref, basket in enumerate(prefix):
            engine.ingest(Transaction((gen.DATE, ref), {item: 1 for item in basket}))
        self.assertTrue(any(r.recurrence_count > 1 for r in engine.ltm))
        self.assertTrue(any(not r.is_open for r in engine.ltm))


class CheckTests(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = Path(self.tmp.name)

    def tearDown(self):
        self.tmp.cleanup()

    def test_grow_check_rejects_a_missing_edge_and_an_extra_cell(self):
        baskets = gen.grow_baskets(2)[:20]
        cells, edges = gen.cooccurrence(baskets)
        snapshot, _ = run_cli(self.dir, baskets, gen.GROW_FLAGS)
        self.assertEqual(checks.check_grow(snapshot, cells, edges), [])
        lines = snapshot.splitlines(keepends=True)
        first_edge = next(i for i, line in enumerate(lines) if line.startswith("edge "))
        dropped = "".join(lines[:first_edge] + lines[first_edge + 1:])
        self.assertTrue(checks.check_grow(dropped, cells, edges))
        self.assertTrue(checks.check_grow(snapshot + "cell zzz 0.5 1 1\n", cells, edges))

    def test_churn_check_rejects_a_lost_forget_event(self):
        snapshot, events = run_cli(self.dir, gen.churn_baskets(2)[:200], gen.CHURN_FLAGS)
        self.assertEqual(checks.check_churn(snapshot, events), [])
        lines = events.splitlines(keepends=True)
        forgotten = [i for i, line in enumerate(lines) if " edge-forgotten " in line]
        self.assertTrue(forgotten)
        lost = "".join(line for i, line in enumerate(lines) if i != forgotten[0])
        self.assertTrue(checks.check_churn(snapshot, lost))

    def test_round_trip_check_rejects_non_canonical_and_unparsable_text(self):
        snapshot, _ = run_cli(self.dir, gen.grow_baskets(3)[:10], gen.GROW_FLAGS)
        self.assertEqual(checks.check_round_trip(snapshot, parse_snapshot, render_snapshot), [])
        lines = snapshot.splitlines(keepends=True)
        edges = [i for i, line in enumerate(lines) if line.startswith("edge ")]
        lines[edges[0]], lines[edges[1]] = lines[edges[1]], lines[edges[0]]
        swapped = "".join(lines)
        self.assertTrue(checks.check_round_trip(swapped, parse_snapshot, render_snapshot))
        broken = snapshot.replace("MINDMAP v1", "MINDMAP v0")
        self.assertTrue(checks.check_round_trip(broken, parse_snapshot, render_snapshot))

    def test_expected_answers_match_the_program_and_reject_a_corrupt_one(self):
        spec = gen.query_cold_spec(4)
        path = self.dir / "state.snap"
        path.write_text(gen.render_spec(spec), encoding="utf-8")
        mix = gen.query_mix(spec, 4)
        kinds = set()
        for args in mix[: 3 * len(gen.QUERY_KINDS)]:
            want = checks.expected_answer(spec, args)
            got = query(path, args)
            self.assertEqual(checks.check_answer(got, want), [], args)
            kinds.add(args[0])
            corrupt = got.replace("0", "1", 1) if "0" in got else got + "x"
            self.assertTrue(checks.check_answer(corrupt, want), args)
        self.assertEqual(kinds, set(gen.QUERY_KINDS))


class TracingTests(unittest.TestCase):
    def test_install_wraps_and_uninstall_restores(self):
        original = cli.main
        tracer = tracing.Tracer("cli")
        uninstall = tracing.install(tracer)
        try:
            self.assertIsNot(cli.main, original)
            self.assertEqual(tracer.absent, [])
        finally:
            uninstall()
        self.assertIs(cli.main, original)

    def test_a_removed_name_is_reported_absent(self):
        saved = list(tracing.TARGETS)
        tracing.TARGETS.append(("model", "MindMap.no_such_method", "model.gone"))
        tracing.TARGETS.append(("no_such_module", "f", "gone.f"))
        tracing.TARGETS[0] = ("model", "MindMap.copy_removed", "model.copy")
        tracer = tracing.Tracer("engine.ingest")
        try:
            uninstall = tracing.install(tracer)
            uninstall()
        finally:
            tracing.TARGETS[:] = saved
        self.assertEqual(tracer.absent, ["model.copy", "model.gone", "gone.f"])
        metrics = tracing.layer_metrics(tracer, 1, 1, [1.0], overhead=0.0, scale=1.0)
        self.assertNotIn("model.copy.ms", metrics)
        self.assertIn("skeleton.extract.ms", metrics)

    def test_self_time_excludes_child_spans(self):
        tracer = tracing.Tracer("engine.ingest")
        tracer.spans = [("engine.ingest", 0.0, 0.010, None, 0), ("model.copy", 0.002, 0.006, 0, 0)]
        metrics = tracing.layer_metrics(tracer, 1, 1, [10.0], overhead=0.0, scale=1.0)
        self.assertAlmostEqual(metrics["engine.ingest.self_ms"], 6.0)
        self.assertAlmostEqual(metrics["model.copy.ms"], 4.0)


class BenchmarkSpecTests(unittest.TestCase):
    def test_metric_names_match_the_harness(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
        self.assertEqual(layer, {n: (u, b) for n, (u, b, _) in tracing.LAYER_METRICS.items()})
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]), run.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
