"""Thresholded skeletons, pairwise association rules, strongest subgraphs.

All functions here are pure reads: none of them changes the mind-map.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, FrozenSet, List, Tuple

from .model import MindMap, Pair


@dataclass(frozen=True)
class Skeleton:
    """Subgraph surviving the weight and activation thresholds."""

    nodes: FrozenSet[str]
    edges: Tuple[Tuple[Pair, float], ...]


@dataclass(frozen=True)
class AssociationRule:
    antecedent: str
    consequent: str
    weight: float


def extract_skeleton(mmap: MindMap, theta_w: float, theta_a: float = 0.0) -> Skeleton:
    """Keep edges with weight >= theta_w whose both endpoints have
    activation >= theta_a, sorted; nodes are the endpoints of kept edges."""
    cells = mmap.cells
    kept = [
        (pair, c.weight)
        for pair, c in mmap.edges.items()
        if c.weight >= theta_w
        and cells[pair[0]].activation >= theta_a
        and cells[pair[1]].activation >= theta_a
    ]
    # Pairs are unique, so the faster pair key gives the order of the tuples.
    kept.sort(key=itemgetter(0))
    nodes = frozenset(label for pair, _ in kept for label in pair)
    return Skeleton(nodes=nodes, edges=tuple(kept))


def derive_rules(s: Skeleton) -> List[AssociationRule]:
    """Each undirected skeleton edge yields both rule directions."""
    rules: List[AssociationRule] = []
    for (a, b), w in s.edges:
        rules.append(AssociationRule(a, b, w))
        rules.append(AssociationRule(b, a, w))
    return rules


def _components(s: Skeleton) -> List[Skeleton]:
    adjacency: Dict[str, set] = {n: set() for n in s.nodes}
    for (a, b), _ in s.edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    edges_of: Dict[str, list] = {}  # node -> edge list of its component
    comps: List[Tuple[set, list]] = []
    for start in sorted(s.nodes):
        if start in edges_of:
            continue
        members, edges = set(), []
        stack = [start]
        while stack:
            node = stack.pop()
            if node in members:
                continue
            members.add(node)
            edges_of[node] = edges
            stack.extend(adjacency[node] - members)
        comps.append((members, edges))
    for edge in s.edges:
        edges_of[edge[0][0]].append(edge)
    return [Skeleton(frozenset(members), tuple(edges)) for members, edges in comps]


def strongest_subgraphs(mmap: MindMap, theta_w: float, top_k: int) -> List[Skeleton]:
    """Connected components of the weight-thresholded skeleton, ranked by
    mean edge weight descending; ties broken by size descending, then by
    the lexicographically smallest node label."""
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    comps = _components(extract_skeleton(mmap, theta_w, 0.0))

    def rank_key(c: Skeleton):
        mean_w = sum(w for _, w in c.edges) / len(c.edges)
        return (-mean_w, -len(c.nodes), min(c.nodes))

    return sorted(comps, key=rank_key)[:top_k]
