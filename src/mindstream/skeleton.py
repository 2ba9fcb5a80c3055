"""Thresholded skeletons, their components and strongest subgraphs.

All functions here are pure reads: none of them changes the mind-map.
"""

from __future__ import annotations

from operator import itemgetter
from typing import AbstractSet, Dict, Iterable, Iterator, List, NamedTuple, Set, Tuple

from .model import MindMap, Pair

Signature = Tuple[str, ...]  # a component's labels, sorted


class Skeleton(NamedTuple):
    """The edges surviving the weight and activation thresholds."""

    edges: Tuple[Tuple[Pair, float], ...]


def extract_skeleton(mmap: MindMap, theta_w: float, theta_a: float = 0.0) -> Skeleton:
    """Keep edges with weight >= theta_w whose both endpoints have
    activation >= theta_a, sorted."""
    cells, activation = mmap.cells, mmap.activation_of
    # A stored weight bounds the one read now, so most edges need no read.
    kept = [
        (pair, w)
        for pair, edge in mmap.edges.items()
        if edge[0] >= theta_w
        and (w := mmap.weight_of(edge)) >= theta_w
        and activation(cells[pair[0]]) >= theta_a
        and activation(cells[pair[1]]) >= theta_a
    ]
    # Pairs are unique, so the faster pair key gives the order of the tuples.
    kept.sort(key=itemgetter(0))
    return Skeleton(tuple(kept))


def adjacency(pairs: Iterable[Pair]) -> Dict[str, Set[str]]:
    """Each label's neighbours over the undirected `pairs`."""
    adj: Dict[str, Set[str]] = {}
    for a, b in pairs:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    return adj


def components(
    adj: Dict[str, Set[str]], starts: Iterable[str], skip: AbstractSet[str] = frozenset()
) -> Iterator[Signature]:
    """The signature (sorted labels) of each component of `adj` less the
    labels in `skip` that holds one of `starts`, once per component; every
    start must be a key of `adj` and not in `skip`."""
    seen: Set[str] = set()
    for start in starts:
        if start in seen:
            continue
        members, stack = {start}, [start]
        while stack:
            for label in adj[stack.pop()]:
                if label not in members and label not in skip:
                    members.add(label)
                    stack.append(label)
        seen |= members
        yield tuple(sorted(members))


def strongest_subgraphs(
    mmap: MindMap, theta_w: float, top_k: int
) -> List[Tuple[Signature, float]]:
    """(signature, mean edge weight) of each connected component of the
    weight-thresholded skeleton, ranked by mean weight descending; ties
    broken by size descending, then by the smallest node label."""
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    edges = extract_skeleton(mmap, theta_w, 0.0).edges
    adj = adjacency(pair for pair, _ in edges)
    sig_of = {label: sig for sig in components(adj, adj) for label in sig}
    weights: Dict[Signature, List[float]] = {}
    for (a, _), w in edges:
        weights.setdefault(sig_of[a], []).append(w)
    ranked = [(sig, sum(ws) / len(ws)) for sig, ws in weights.items()]
    ranked.sort(key=lambda r: (-r[1], -len(r[0]), r[0][0]))
    return ranked[:top_k]
