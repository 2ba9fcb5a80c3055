#!/usr/bin/env python3
"""Compare the dynamic engine against the static Apriori baseline.

Generates a random transactional stream, runs both, and prints the engine's
strongest pairs next to the most frequent 2-itemsets. With decay disabled
the heaviest edges line up with the most frequent pairs; with decay enabled
recent co-occurrences dominate.
"""

import argparse
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mindstream.apriori import apriori
from mindstream.cli import guard_stdout
from mindstream.engine import Engine
from mindstream.model import EngineParams, Transaction, distinct_items


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--items", type=int, default=10)
    parser.add_argument("--transactions", type=int, default=200)
    parser.add_argument("--no-decay", action="store_true")
    args = parser.parse_args()

    rng = random.Random(args.seed)
    alphabet = [chr(ord("a") + k) for k in range(args.items)]
    txns = []
    for _ in range(args.transactions):
        size = rng.randint(2, min(4, args.items))
        txns.append(Transaction(None, distinct_items(rng.sample(alphabet, size))))

    params = (
        EngineParams(beta_w=0.0, beta_a=0.0, epsilon=0.0)
        if args.no_decay
        else EngineParams()
    )
    engine = Engine(params)
    for t in txns:
        engine.ingest(t)

    weights = {pair: engine.mmap.weight_of(conn) for pair, conn in engine.mmap.edges.items()}
    heaviest = sorted(weights.items(), key=lambda kv: -kv[1])[:10]
    print("heaviest connections (dynamic mind-map):")
    for pair, w in heaviest:
        print(f"  {pair[0]} -- {pair[1]}  weight {w:.4f}")

    pairs = [(s, supp) for s, supp in apriori(txns, 1).items() if len(s) == 2]
    pairs.sort(key=lambda kv: -kv[1])
    print("\nmost frequent pairs (static Apriori):")
    for (a, b), supp in pairs[:10]:
        print(f"  {a} -- {b}  support {supp}")


if __name__ == "__main__":
    sys.exit(guard_stdout(main))
