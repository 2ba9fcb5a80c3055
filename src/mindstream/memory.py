"""Short-term and long-term pattern memory.

A pattern is a connected component (>= 2 cells) of the thresholded
skeleton, and it is identified by its signature: the sorted tuple of its
node labels. Both memories are dicts keyed by signature, whose values are
tuples, as map records are. The short-term memory holds each current
pattern's run, a plain `(first_seen_step, consecutive_steps)`; once the
count reaches the promotion horizon the pattern gets a long-term `Record`,
`(appeared_at, disappeared_at, recurrence_count)`. A step replaces the
tuples it changes and never writes one in place. A signature promoted again
after its record closed reopens that record and bumps its recurrence count.
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
    stm: Dict[Signature, Run], step: int, promote_after: int
) -> Tuple[Dict[Signature, Run], Set[Signature]]:
    """Advance the short-term memory to `step` in place; returns it.

    `stm` holds exactly the current patterns: a lapsed one was dropped (one
    missed step resets survival). Entries first seen before `step` gain a
    step; signatures whose count is now exactly promote_after are promoted.
    """
    promotions: Set[Signature] = set()
    for sig, (first, run) in stm.items():
        if first < step:
            run += 1
            stm[sig] = (first, run)  # a present key, so the iteration stays valid
        if run == promote_after:
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

