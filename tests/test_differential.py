"""Differential test: the shipped engine against the reference engine.

Two engines consume the same seeded random stream under the same random
parameters. One runs the shipped step: the in-place dynamics with forward
decay and the signature-keyed memory. The other runs the copy-per-phase
dynamics of `reference_dynamics`, which multiplies every untouched record
by 1 - beta in every step, and the list-based memory of `reference_memory`.

After every step the two must hold the same cell, edge, heavy, kept, STM
and LTM keys, the same stamps, STM runs and LTM records, and the same step
events and event lines. Values need not be equal to the last bit: the
shipped engine reads a value as stored * (1 - beta)**n where the reference
multiplied n times, so each weight, activation and trace value must be
within `REL` of the reference's. The shipped engine's maintained structures
(the per-cell degree count, the heavy set the skeleton is read from, the
kept skeleton's adjacency and signatures) must also equal a recount from
the edges, and the strongest-subgraphs ranking must equal the one built
from the reference's own component search. The degree count is None until
the first prune that is given something to drop, and equal from then on.

A knife edge is a step where the two readings of one value fall on
opposite sides of a threshold; it can set the key sets apart however
correct both engines are. None occurs over the 48 streams, so no case is
excluded: `KNIFE_EDGES` is empty, and a stream that splits on one fails.
"""

import random
from collections import Counter
from unittest import mock

import pytest

from mindstream import dynamics
from mindstream.dynamics import prune_forgotten
from mindstream.engine import Engine
from mindstream.memory import detect_patterns
from mindstream.model import EngineParams, MindMap
from mindstream.skeleton import extract_skeleton, strongest_subgraphs

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
    replacement, so duplicates are common. The first labels are not letters
    and digits alone: a label with a space or a leading quote needs quotes
    (and `"` an escape), and `|` needs one in a signature."""
    special = ["i 0", '"i1', "i|2", "i-3"]
    alphabet = [special[k] if k < 4 else f"i{k}" for k in range(rng.randint(3, 12))]
    stream = []
    for _ in range(n_txns):
        size = rng.choice([0, 1, 1, 2, 3, 4, 5, 6, 8])
        stream.append(txn([rng.choice(alphabet) for _ in range(size)]))
    return stream, alphabet


REL = 1e-12
KNIFE_EDGES: dict = {}  # (decay, epsilon_near, seed) -> why; none so far


def with_queries(engine: Engine, alphabet) -> Engine:
    engine.register_query(alphabet[0], alphabet[1], horizon=10**6)
    return engine


def fail_copy(self):
    raise AssertionError("the in-place step copied the map")


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL * max(abs(a), abs(b))


def assert_same_map(fast: MindMap, ref: MindMap, where: str) -> None:
    """Same keys and stamps; each value read now within REL of the reference's."""
    assert fast.step == ref.step, where
    assert fast.cells.keys() == ref.cells.keys(), where
    assert fast.edges.keys() == ref.edges.keys(), where
    for label, cell in fast.cells.items():
        other = ref.cells[label]
        assert cell[1:] == other[1:], where
        assert close(fast.activation_of(cell), other[0]), (where, label)
    for pair, edge in fast.edges.items():
        other = ref.edges[pair]
        assert edge[1] == other[1], where
        assert close(fast.weight_of(edge), other[0]), (where, pair)


def same_trace(a: str, b: str) -> bool:
    return a == b or (a != "absent" != b and close(float(a), float(b)))


@pytest.mark.parametrize("decay", [False, True])
@pytest.mark.parametrize("epsilon_near", ["zero", "theta_w"])
def test_in_place_step_matches_reference(decay, epsilon_near):
    pattern_lines, counted, quoted_lines = Counter(), Counter(), Counter()
    for seed in range(12):
        if (decay, epsilon_near, seed) in KNIFE_EDGES:
            continue
        rng = random.Random(f"{decay}-{epsilon_near}-{seed}")
        params = random_params(rng, decay, epsilon_near)
        stream, alphabet = random_stream(rng, rng.randint(40, 160))
        fast = with_queries(Engine(params), alphabet)
        ref = with_queries(ReferenceEngine(params), alphabet)
        fast_map = fast.mmap
        given = []  # per prune call: was it given an edge or cell to drop?

        def spy_prune(mmap, edges, cells, epsilon):
            given.append(bool(edges or cells))
            return prune_forgotten(mmap, edges, cells, epsilon)

        for i, t in enumerate(stream, start=1):
            logged, emitted = len(fast.event_lines), len(fast.emissions)
            with mock.patch.object(MindMap, "copy", fail_copy), \
                    mock.patch.object(dynamics, "prune_forgotten", spy_prune):
                fast_events = fast.ingest(t)
            ref_events = ref.ingest(t)
            where = f"seed {seed}, step {i}, {params}"
            assert fast.mmap is fast_map, where
            assert_same_map(fast.mmap, ref.mmap, where)
            edges = fast.mmap.edges
            recount = Counter(label for pair in edges for label in pair)
            # The count waits for the first prune given something to drop.
            if any(given):
                assert dict(fast.mmap.degree) == dict(recount), where
                counted[True] += 1
            else:
                assert fast.mmap.degree is None, where
                counted[False] += 1
            weight = fast.mmap.weight_of
            heavy = {p for p, c in edges.items() if weight(c) >= params.theta_w}
            assert heavy == {p for p, (w, _) in ref.mmap.edges.items() if w >= params.theta_w}, where
            adjacency = {}
            for a, b in heavy:
                adjacency.setdefault(a, set()).add(b)
                adjacency.setdefault(b, set()).add(a)
            assert fast._adj == adjacency, where
            activation = fast.mmap.activation_of
            dark = {x for x, c in fast.mmap.cells.items() if activation(c) < params.theta_a}
            assert fast._dark == dark, where
            skel = extract_skeleton(fast.mmap, params.theta_w, params.theta_a)
            ref_skel = extract_skeleton(ref.mmap, params.theta_w, params.theta_a)
            kept = {(a, b) for a, ns in fast._adj.items() for b in ns if a < b}
            kept = {p for p in kept if p[0] not in fast._dark and p[1] not in fast._dark}
            assert kept == {p for p, _ in skel.edges} == {p for p, _ in ref_skel.edges}, where
            assert set(fast.stm) == detect_patterns(skel), where
            ranking = strongest_subgraphs(fast.mmap, params.theta_w, 3)
            assert ranking == reference_strongest(fast.mmap, params.theta_w, 3), where
            assert fast.state.stm == ref.state.stm, where
            assert fast.state.ltm == ref.state.ltm, where
            assert fast.event_lines[logged:] == ref.event_lines[logged:], where
            assert fast_events == ref_events, where
            fast_out, ref_out = fast.emissions[emitted:], ref.emissions[emitted:]
            assert [(s, p) for s, p, _ in fast_out] == [(s, p) for s, p, _ in ref_out], where
            assert all(same_trace(a[2], b[2]) for a, b in zip(fast_out, ref_out)), where
        pattern_lines.update(
            line.split()[1] for line in fast.event_lines if " pattern-" in line
        )
        quoted_lines.update(line.split()[1] for line in fast.event_lines if '"' in line)
    # Every kind of LTM transition was compared, not only the common ones.
    # Without decay the skeleton only grows, so no signature can come back.
    kinds = ["pattern-promoted", "pattern-closed"] + (["pattern-reopened"] if decay else [])
    for kind in kinds:
        assert pattern_lines[kind] > 0, (kind, pattern_lines)
    # Lines with a quoted label were compared, forgotten ones where a floor
    # near theta_w forgets cells.
    kinds = ["cell-created", "edge-created", "pattern-promoted"]
    for kind in kinds + ["edge-forgotten", "cell-forgotten"] * (epsilon_near == "theta_w"):
        assert quoted_lines[kind] > 0, (kind, quoted_lines)
    # Steps ran both before and after the count; without decay, a floor near
    # zero forgets nothing, so only there is it never built.
    assert counted[False] > 0, counted
    assert counted[True] > 0 or (not decay and epsilon_near == "zero"), counted
