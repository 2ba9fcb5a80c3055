"""Differential test: the shipped engine against the reference engine.

Two engines consume the same seeded random stream under the same random
parameters. One runs the shipped step: the in-place dynamics and the
signature-keyed memory. The other runs the copy-per-phase dynamics of
`reference_dynamics` and the list-based memory of `reference_memory`.
After every step the snapshots, the step's event lines, its events and the
query emissions must be identical, the shipped engine's maintained
structures (the per-cell degree count, the set the skeleton is read from,
and the kept skeleton's adjacency and signatures) must equal a recount from
the edges, and the strongest-subgraphs ranking must equal the one built
from the reference's own component search.
"""

import random
from collections import Counter
from unittest import mock

import pytest

from mindstream.engine import ContinuousQuery, Engine
from mindstream.memory import detect_patterns
from mindstream.model import EngineParams, MindMap
from mindstream.skeleton import extract_skeleton, strongest_subgraphs
from mindstream.snapshot import render_snapshot

from helpers import txn
from reference_memory import ReferenceEngine, strongest_subgraphs as reference_strongest


def random_params(rng: random.Random, decay: bool, epsilon_near: str) -> EngineParams:
    theta_w = rng.uniform(0.05, 0.95)
    if epsilon_near == "zero":
        epsilon = rng.choice([0.0, theta_w * rng.uniform(1e-6, 1e-2)])
    else:  # just below theta_w: forgetting races the skeleton threshold
        epsilon = theta_w * rng.uniform(0.9, 0.999)
    return EngineParams(
        eta=rng.uniform(0.05, 1.0),
        lam=rng.uniform(0.05, 1.0),
        beta_w=rng.uniform(0.005, 0.4) if decay else 0.0,
        beta_a=rng.uniform(0.005, 0.4) if decay else 0.0,
        epsilon=epsilon,
        theta_w=theta_w,
        theta_a=rng.choice([0.0, rng.uniform(0.0, 0.9)]),
        promote_after=rng.randint(1, 4),
    )


def random_stream(rng: random.Random, n_txns: int):
    """Empty, singleton and multi-item transactions; items drawn with
    replacement, so duplicates are common."""
    alphabet = [f"i{k}" for k in range(rng.randint(3, 12))]
    stream = []
    for _ in range(n_txns):
        size = rng.choice([0, 1, 1, 2, 3, 4, 5, 6, 8])
        stream.append(txn([rng.choice(alphabet) for _ in range(size)]))
    return stream, alphabet


def with_queries(engine: Engine, alphabet) -> Engine:
    engine.register_query(ContinuousQuery((alphabet[0], alphabet[1]), horizon=10**6))
    return engine


def fail_copy(self):
    raise AssertionError("the in-place step copied the map")


@pytest.mark.parametrize("decay", [False, True])
@pytest.mark.parametrize("epsilon_near", ["zero", "theta_w"])
def test_in_place_step_matches_reference(decay, epsilon_near):
    pattern_lines = Counter()
    for seed in range(12):
        rng = random.Random(f"{decay}-{epsilon_near}-{seed}")
        params = random_params(rng, decay, epsilon_near)
        stream, alphabet = random_stream(rng, rng.randint(40, 160))
        fast = with_queries(Engine(params), alphabet)
        ref = with_queries(ReferenceEngine(params), alphabet)
        fast_map = fast.mmap
        for i, t in enumerate(stream, start=1):
            logged, emitted = len(fast.event_lines), len(fast.emissions)
            with mock.patch.object(MindMap, "copy", fail_copy):
                fast_events = fast.ingest(t)
            ref_events = ref.ingest(t)
            where = f"seed {seed}, step {i}, {params}"
            assert fast.mmap is fast_map, where
            edges = fast.mmap.edges
            recount = Counter(label for pair in edges for label in pair)
            assert dict(fast.mmap.degree) == dict(recount), where
            heavy = {p for p, c in edges.items() if c.weight >= params.theta_w}
            assert fast._heavy == heavy, where
            skel = extract_skeleton(fast.mmap, params.theta_w, params.theta_a)
            assert fast._patterns == detect_patterns(skel), where
            adjacency = {}
            for (a, b), _ in skel.edges:
                adjacency.setdefault(a, set()).add(b)
                adjacency.setdefault(b, set()).add(a)
            assert fast._adj == adjacency, where
            assert fast._sig_of == {n: sig for sig in fast._patterns for n in sig}, where
            ranking = strongest_subgraphs(fast.mmap, params.theta_w, 3)
            assert ranking == reference_strongest(fast.mmap, params.theta_w, 3), where
            assert render_snapshot(fast.state) == render_snapshot(ref.state), where
            assert fast.event_lines[logged:] == ref.event_lines[logged:], where
            assert fast_events == ref_events, where
            assert [(e.step, e.text) for e in fast.emissions[emitted:]] == [
                (e.step, e.text) for e in ref.emissions[emitted:]
            ], where
        pattern_lines.update(
            line.split()[1] for line in fast.event_lines if " pattern-" in line
        )
    # Every kind of LTM transition was compared, not only the common ones.
    # Without decay the skeleton only grows, so no signature can come back.
    kinds = ["pattern-promoted", "pattern-closed"] + (["pattern-reopened"] if decay else [])
    for kind in kinds:
        assert pattern_lines[kind] > 0, (kind, pattern_lines)
