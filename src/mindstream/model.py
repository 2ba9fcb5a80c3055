"""Core state of the mind-map: cells, connections, and engine parameters.

The mind-map is a sparse undirected weighted graph over item labels. Cells
are keyed by label and edges by their unordered pair, stored once in
lexicographic order; the key is the record's identity, so a record is a
plain tuple of its value and step stamps: an `Edge` is (weight,
last_reinforced_at) and a `Cell` is (activation, created_at,
last_activated_at). A step replaces each record it touches, and the edges
it creates share one tuple. The base model is cooperative only:
activations and weights live in [0, 1]. Records are built unchecked: input
from outside is validated once at the boundary (the stream parser for each
record it reads, `Transaction` for one built elsewhere, `parse_snapshot`
for a snapshot).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

Pair = Tuple[str, str]
Edge = Tuple[float, int]  # (weight, last_reinforced_at)
Cell = Tuple[float, int, int]  # (activation, created_at, last_activated_at)


class SelfPairError(ValueError):
    """Raised when an operation receives the same label twice as a pair."""


def validate_label(label: str) -> str:
    # A newline would end a snapshot line inside a quoted label.
    if not isinstance(label, str) or not label.strip() or "\n" in label:
        raise ValueError(f"item label must be a non-empty single-line string, got {label!r}")
    return label


def canonical_pair(a: str, b: str) -> Pair:
    """Order an unordered pair deterministically. Self-pairs are rejected."""
    if a == b:
        raise SelfPairError(f"self-pair ({a!r}, {a!r})")
    return (a, b) if a < b else (b, a)


class _Transaction(NamedTuple):
    tid: Optional[Tuple[str, int]]
    items: Dict[str, int]


class Transaction(_Transaction):
    """One TID-grouped read from the stream; duplicates merged with counts."""

    __slots__ = ()
    _make = classmethod(lambda cls, iterable: cls(*iterable))  # so that `_replace` checks too

    def __new__(cls, tid: Optional[Tuple[str, int]], items: Dict[str, int]) -> "Transaction":
        for label, count in items.items():
            validate_label(label)
            if type(count) is not int or count < 1:  # a bool is not a count
                raise ValueError(f"count for {label!r} must be an int >= 1, got {count!r}")
        return super().__new__(cls, tid, items)


def distinct_items(raw_items: Iterable[str]) -> Dict[str, int]:
    """Merge a raw item sequence into a label -> occurrence-count map. The
    labels are checked by `Transaction`, or by the parser as it reads them."""
    counts: Dict[str, int] = {}
    for label in raw_items:
        counts[label] = counts.get(label, 0) + 1
    return counts


class MindMap:
    """Cells, edges and the step counter that stamps them. Decay is forward:
    a record stores its value as of its stamp, or of `origin` (the step the
    map was built at) if later, and `weight_of` / `activation_of` read it at
    `step`, times `keep_w` / `keep_a` (1 - beta, set by each step) per step
    since. `wheel` maps a step to the (edge pair or cell label, step filed
    from) entries due then. `degree` (edges per cell) is None until a step
    with something to forget counts it from `edges`; steps keep it after
    that, and a direct edge write makes it stale."""

    def __init__(
        self, cells: Optional[Dict[str, Cell]] = None, edges: Optional[Dict[Pair, Edge]] = None,
        step: int = 0,
    ) -> None:
        self.cells = {} if cells is None else cells
        self.edges = {} if edges is None else edges
        self.step = self.origin = step
        self.keep_w = self.keep_a = 1.0
        self.wheel: Dict[int, List[Tuple]] = {}
        self.degree: Optional[Dict[str, int]] = None  # a dict: no entry for a cell with none

    def weight_of(self, edge: Edge) -> float:
        w, stamp = edge
        n = self.step - max(stamp, self.origin)
        return w * self.keep_w**n if n else w

    def activation_of(self, cell: Cell) -> float:
        a, _, stamp = cell
        n = self.step - max(stamp, self.origin)
        return a * self.keep_a**n if n else a

    def get_weight(self, a: str, b: str) -> Optional[float]:
        """Weight of the unordered pair (a, b), or None if no edge exists."""
        edge = self.edges.get(canonical_pair(a, b))
        return None if edge is None else self.weight_of(edge)

    def get_activation(self, label: str) -> Optional[float]:
        cell = self.cells.get(label)
        return None if cell is None else self.activation_of(cell)

    def copy(self) -> "MindMap":
        """Independent copy; safe to mutate without touching the original."""
        from copy import deepcopy  # here, so that a query never loads `copy`

        return deepcopy(self)


class _Params(NamedTuple):
    eta: float = 0.5
    lam: float = 0.5
    beta_w: float = 0.02
    beta_a: float = 0.05
    epsilon: float = 0.01
    theta_w: float = 0.5
    theta_a: float = 0.0
    promote_after: int = 2


class EngineParams(_Params):
    """Tunable update-rule parameters.

    eta: Hebbian learning rate, (0, 1].
    lam: activation gain per occurrence, (0, 1].
    beta_w / beta_a: per-step multiplicative decay of non-reinforced edge
        weights / non-activated cell activations, [0, 1).
    epsilon: forgetting floor; edges below it (and isolated quiet cells)
        are pruned, [0, 1) and < theta_w.
    theta_w / theta_a: skeleton thresholds on weight / activation, [0, 1].
    promote_after: consecutive skeleton steps before a pattern is promoted
        to long-term memory, >= 1.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, iterable: cls(*iterable))  # so that `_replace` checks too

    def __new__(cls, *args, **kwargs) -> "EngineParams":
        self = super().__new__(cls, *args, **kwargs)
        # `parse_snapshot` names the `param` line of a message's first word.
        for ok, message in (
            (0.0 < self.eta <= 1.0, "eta must be in (0, 1]"),
            (0.0 < self.lam <= 1.0, "lam must be in (0, 1]"),
            (0.0 <= self.beta_w < 1.0, "beta_w must be in [0, 1)"),
            (0.0 <= self.beta_a < 1.0, "beta_a must be in [0, 1)"),
            (0.0 <= self.epsilon < 1.0, "epsilon must be in [0, 1)"),
            (0.0 <= self.theta_w <= 1.0, "theta_w must be in [0, 1]"),
            (0.0 <= self.theta_a <= 1.0, "theta_a must be in [0, 1]"),
            (self.epsilon < self.theta_w, "epsilon must be < theta_w"),
            (type(self.promote_after) is int, "promote_after must be an int, not a float or bool"),
            (self.promote_after >= 1, "promote_after must be >= 1"),
        ):
            if not ok:
                raise ValueError(message)
        return self


# Each parameter's name and value type (int or float), in declaration order:
# the one list that the CLI flags and the snapshot `param` lines derive from.
PARAM_TYPES: Dict[str, type] = {
    name: type(default) for name, default in _Params._field_defaults.items()
}
