"""Short-term and long-term pattern memory.

A pattern is a connected component (>= 2 cells) of the thresholded
skeleton, and it is identified by its signature: the sorted tuple of its
node labels. Both memories are dicts keyed by signature. The short-term
memory maps each current pattern to its first-seen step, from which its run
is derived when read; once the run reaches the promotion horizon the pattern
gets a long-term `Record`, `(appeared_at, disappeared_at, recurrence_count)`.
A step replaces the records it changes and never writes one in place. A
signature promoted again after its record closed reopens that record and
bumps its recurrence count.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Set, Tuple

from .skeleton import Signature, Skeleton, adjacency, components

Run = Tuple[int, int]  # (first_seen_step, consecutive_steps)


class Record(NamedTuple):
    """A long-term record of the signature it is keyed by."""

    appeared_at: int
    disappeared_at: Optional[int]  # None while still present
    recurrence_count: int

    @property
    def is_open(self) -> bool:
        return self.disappeared_at is None


def detect_patterns(s: Skeleton) -> Set[Signature]:
    """One signature per connected skeleton component."""
    adj = adjacency(pair for pair, _ in s.edges)
    return set(components(adj, adj))


def stm_tick(
    stm: Dict[Signature, int], step: int, promote_after: int
) -> Tuple[Dict[Signature, int], Set[Signature]]:
    """Return `stm`, which maps exactly the current patterns to their first-seen
    steps (one missed step drops a pattern), and the signatures it promotes at
    `step`: those whose run, `step - first + 1`, is exactly promote_after."""
    due = step + 1 - promote_after
    promotions: Set[Signature] = set()
    for sig, first in stm.items():
        if first == due:
            promotions.add(sig)
    return stm, promotions


def ltm_update(
    ltm: Dict[Signature, Record],
    promotions: Set[Signature],
    lapsed: Set[Signature],
    step: int,
) -> Dict[Signature, Record]:
    """Apply one step's promotions and closures to `ltm` in place; returns it.

    A promoted signature whose record is closed reopens it (appeared_at is
    restamped and the recurrence count bumped); one with no record gets a
    fresh one. `lapsed` holds the signatures of the previous step's STM that
    are not current; their open records are closed at `step`. No other
    record can close: an open record's signature has been current, and so
    in the STM, at every step since its promotion.
    """
    for sig in promotions:
        record = ltm.get(sig)
        if record is None:
            ltm[sig] = Record(step, None, 1)
        elif not record.is_open:
            ltm[sig] = Record(step, None, record.recurrence_count + 1)
    for sig in lapsed:
        record = ltm.get(sig)
        if record is not None and record.is_open:
            ltm[sig] = record._replace(disappeared_at=step)
    return ltm

