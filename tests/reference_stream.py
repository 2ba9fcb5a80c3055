"""Test-only reference: the record reader that sends every line through
`_parse`.

This is the `_records` loop as it was before `mindstream.stream` read a
common record (an ASCII line that repeats the last valid record's date, with
a short digit ref and a trimmed name) without `_parse`. It calls the live
`mindstream.stream._parse`, so the differential test checks the fast path
against the current per-field parse: both readers get the same lines and
must give the same transactions, or the same `ParseError` at the same line,
and under `on_error="skip"` skip the same lines.
"""

from __future__ import annotations

import logging
from itertools import groupby
from operator import itemgetter
from typing import Iterable, Iterator, Tuple

from mindstream.model import Transaction, distinct_items
from mindstream.stream import ParseError, _parse

log = logging.getLogger(__name__)


def records(lines: Iterable[str], on_error: str) -> Iterator[Tuple[str, int, str]]:
    if on_error not in ("stop", "skip"):
        raise ValueError(f"on_error must be stop or skip, got {on_error!r}")
    known = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        try:
            record = _parse(line, line.split(";"), lineno, known)
        except ParseError as exc:
            if on_error == "stop":
                raise
            log.warning("skipping bad record: %s", exc)
            continue
        known = record[0]
        yield record


def read_transactions(lines: Iterable[str], on_error: str = "stop") -> Iterator[Transaction]:
    for tid, run in groupby(records(lines, on_error), key=itemgetter(0, 1)):
        yield Transaction(tid, distinct_items(map(itemgetter(2), run)))
