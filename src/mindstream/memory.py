"""Short-term and long-term pattern memory.

A pattern is a connected component (>= 2 cells) of the thresholded
skeleton, and it is identified by its signature: the sorted tuple of its
node labels. Both memories are dicts keyed by signature. The short-term
memory counts how many consecutive steps each pattern has survived; once
the count reaches the promotion horizon the pattern gets a long-term
record with appearance / disappearance step stamps, which is then updated
in place. A signature promoted again after its record closed reopens that
record and bumps its recurrence count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from .skeleton import Signature, Skeleton, adjacency, components


@dataclass
class STMEntry:
    first_seen_step: int
    consecutive_steps: int = 1


@dataclass
class LTMRecord:
    signature: Signature
    appeared_at: int
    disappeared_at: Optional[int] = None  # None while still present
    recurrence_count: int = 1

    @property
    def is_open(self) -> bool:
        return self.disappeared_at is None


def detect_patterns(s: Skeleton) -> Set[Signature]:
    """One signature per connected skeleton component."""
    adj = adjacency(pair for pair, _ in s.edges)
    return set(components(adj, adj))


def stm_tick(
    stm: Dict[Signature, STMEntry], step: int, promote_after: int
) -> Tuple[Dict[Signature, STMEntry], Set[Signature]]:
    """Advance the short-term memory to `step` in place; returns it.

    `stm` holds exactly the current patterns: a lapsed one was dropped (one
    missed step resets survival). Entries first seen before `step` gain a
    step; signatures whose count is now exactly promote_after are promoted.
    """
    promotions: Set[Signature] = set()
    for sig, entry in stm.items():
        if entry.first_seen_step < step:
            entry.consecutive_steps += 1
        if entry.consecutive_steps == promote_after:
            promotions.add(sig)
    return stm, promotions


def ltm_update(
    ltm: Dict[Signature, LTMRecord],
    promotions: Set[Signature],
    lapsed: Set[Signature],
    step: int,
) -> Dict[Signature, LTMRecord]:
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
            ltm[sig] = LTMRecord(sig, appeared_at=step)
        elif not record.is_open:
            record.recurrence_count += 1
            record.appeared_at = step
            record.disappeared_at = None
    for sig in lapsed:
        record = ltm.get(sig)
        if record is not None and record.is_open:
            record.disappeared_at = step
    return ltm

