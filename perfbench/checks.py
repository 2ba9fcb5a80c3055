"""Output checks for every workload.

Each check returns a list of problems; an empty list means the output is
correct. The expected answers are computed here from the generator's own
data, independently of mindstream. The one exception is the round-trip check,
which by definition runs the program's own parser and renderer; callers pass
those two functions in.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Set, Tuple

from gen import Pair, SnapshotSpec


def _snapshot_sets(text: str) -> Tuple[Set[str], Set[Pair]]:
    """Cell labels and edge pairs of a snapshot whose labels need no quoting."""
    cells, edges = set(), set()
    for line in text.splitlines():
        tokens = line.split()
        if tokens and tokens[0] == "cell":
            cells.add(tokens[1])
        elif tokens and tokens[0] == "edge":
            edges.add((tokens[1], tokens[2]))
    return cells, edges


def _compare(what: str, got: set, want: set) -> List[str]:
    if got == want:
        return []
    return [f"{what}: {len(got - want)} unexpected, {len(want - got)} missing"]


def check_grow(snapshot: str, cells: Set[str], edges: Set[Pair]) -> List[str]:
    """The final map is exactly the co-occurrence graph of the stream."""
    got_cells, got_edges = _snapshot_sets(snapshot)
    return _compare("cells", got_cells, cells) + _compare("edges", got_edges, edges)


def check_churn(snapshot: str, events: str) -> List[str]:
    """Replaying created/forgotten events reproduces the snapshot's sets."""
    cells: Set[str] = set()
    edges: Set[Pair] = set()
    for line in events.splitlines():
        _, kind, *labels = line.split()
        if kind == "cell-created":
            cells.add(labels[0])
        elif kind == "cell-forgotten":
            cells.discard(labels[0])
        elif kind == "edge-created":
            edges.add((labels[0], labels[1]))
        elif kind == "edge-forgotten":
            edges.discard((labels[0], labels[1]))
    got_cells, got_edges = _snapshot_sets(snapshot)
    return _compare("replayed cells", got_cells, cells) + _compare(
        "replayed edges", got_edges, edges
    )


def check_round_trip(
    snapshot: str, parse: Callable[[str], object], render: Callable[[object], str]
) -> List[str]:
    """The written snapshot re-parses and re-renders byte-identically."""
    try:
        again = render(parse(snapshot))
    except ValueError as exc:
        return [f"snapshot does not re-parse: {exc}"]
    return [] if again == snapshot else ["snapshot does not re-render byte-identically"]


# --- query-cold expected answers --------------------------------------------


def _fmt(w: float) -> str:
    return f"{w:.6f}"


def _skeleton(spec: SnapshotSpec, theta_w: float, theta_a: float) -> List[Tuple[Pair, float]]:
    return [
        (pair, w)
        for pair, (w, _) in sorted(spec.edges.items())
        if w >= theta_w
        and spec.cells[pair[0]][0] >= theta_a
        and spec.cells[pair[1]][0] >= theta_a
    ]


def _components(kept: List[Tuple[Pair, float]]) -> List[Tuple[List[str], List[float]]]:
    """(sorted nodes, weights in skeleton order) for each connected component."""
    root: Dict[str, str] = {}

    def find(x: str) -> str:
        while root.setdefault(x, x) != x:
            x = root[x]
        return x

    for (a, b), _ in kept:
        root[find(a)] = find(b)
    groups: Dict[str, Tuple[List[str], List[float]]] = {}
    for (a, b), w in kept:
        groups.setdefault(find(a), ([], []))[1].append(w)
    for node in root:
        groups[find(node)][0].append(node)
    return [(sorted(nodes), weights) for nodes, weights in groups.values()]


def _option(args: List[str], name: str, default):
    return type(default)(args[args.index(name) + 1]) if name in args else default


def expected_answer(spec: SnapshotSpec, args: List[str]) -> str:
    """What `mindstream query` prints for `args` on the generated state."""
    kind, rest = args[0], args[1:]
    theta_w = _option(rest, "--theta-w", spec.params["theta_w"])
    theta_a = _option(rest, "--theta-a", spec.params["theta_a"])
    if kind == "weight":
        a, b = rest
        entry = spec.edges.get((a, b) if a < b else (b, a))
        lines = ["absent" if entry is None else _fmt(entry[0])]
    elif kind == "activation":
        entry = spec.cells.get(rest[0])
        lines = ["absent" if entry is None else _fmt(entry[0])]
    elif kind == "skeleton":
        kept = _skeleton(spec, theta_w, theta_a)
        nodes = sorted({label for pair, _ in kept for label in pair})
        lines = ["nodes " + " ".join(nodes)] + [f"edge {a} {b} {_fmt(w)}" for (a, b), w in kept]
    elif kind == "rules":
        kept = _skeleton(spec, theta_w, theta_a)
        rules = sorted([(a, b, w) for (a, b), w in kept] + [(b, a, w) for (a, b), w in kept])
        lines = [f"{a} => {b} {_fmt(w)}" for a, b, w in rules]
    elif kind == "patterns":
        comps = _components(_skeleton(spec, theta_w, theta_a))
        lines = sorted("pattern " + "|".join(nodes) for nodes, _ in comps)
    elif kind == "strongest":
        comps = _components(_skeleton(spec, theta_w, 0.0))
        ranked = sorted(comps, key=lambda c: (-sum(c[1]) / len(c[1]), -len(c[0]), c[0][0]))
        lines = [
            f"{rank} [{'|'.join(nodes)}] mean-weight {_fmt(sum(ws) / len(ws))}"
            for rank, (nodes, ws) in enumerate(ranked[: _option(rest, "--top", 3)], start=1)
        ]
    elif kind == "ltm":
        which = rest[0] if rest else "all"
        records = sorted(
            (r for r in spec.ltm if which == "all" or (r[2] is None) == (which == "open")),
            key=lambda r: (r[1], r[0]),
        )
        lines = [
            f"{'|'.join(sig)} {appeared} {'open' if gone is None else gone} {rec}"
            for sig, appeared, gone, rec in records
        ]
    else:
        raise ValueError(f"no expected answer for query kind {kind!r}")
    text = "\n".join(lines)
    return text + "\n" if text else ""


def check_answer(got: str, want: str) -> List[str]:
    if got == want:
        return []
    return [f"answer differs: got {got[:60]!r}..., want {want[:60]!r}..."]
