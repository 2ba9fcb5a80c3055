#!/usr/bin/env python3
"""Replay the four-transaction example and show what the engine derives.

Prints the per-step edge weights for B-C, the final skeleton at a threshold
chosen inside the weight gap, the six association rules, and the snapshot.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mindstream.cli import guard_stdout
from mindstream.engine import Engine
from mindstream.model import EngineParams, Transaction, distinct_items
from mindstream.skeleton import extract_skeleton
from mindstream.snapshot import render_snapshot

STREAMS = [
    ["A", "A", "C", "D"],
    ["B", "C", "E"],
    ["A", "B", "C", "E"],
    ["B", "C", "E"],
]


def main() -> None:
    engine = Engine(EngineParams())
    engine.register_query("B", "C", horizon=4)
    for items in STREAMS:
        engine.ingest(Transaction(None, distinct_items(items)))

    print("trace of connection B-C:")
    for step, _, text in engine.emissions:
        print(f"  step {step}: {text}")

    triangle = {("B", "C"), ("B", "E"), ("C", "E")}
    weights = {p: engine.mmap.weight_of(c) for p, c in engine.mmap.edges.items()}
    lo = min(w for p, w in weights.items() if p in triangle)
    hi = max(w for p, w in weights.items() if p not in triangle)
    theta = (lo + hi) / 2
    print(f"\nweight gap: strongest other edge {hi:.4f} < triangle minimum {lo:.4f}")
    print(f"skeleton at theta_w = {theta:.4f}:")
    skel = extract_skeleton(engine.mmap, theta)
    for (a, b), w in skel.edges:
        print(f"  {a} -- {b}  ({w:.4f})")
    print("rules:")
    # Each kept edge is a rule both ways.
    for a, b in sorted([pair for pair, _ in skel.edges] + [pair[::-1] for pair, _ in skel.edges]):
        print(f"  {a} => {b}")

    print("\nfinal snapshot:")
    print(render_snapshot(engine.state), end="")


if __name__ == "__main__":
    sys.exit(guard_stdout(main))
