"""Line-oriented transactional stream parsing and TID grouping.

Record syntax: `date;ref;name`, one per line, UTF-8, LF-terminated.
Fields are trimmed; `date` is exactly YYYY-MM-DD, `ref` a non-negative
integer in ASCII digits (no sign or `_`), `name` a non-empty item label (no
`;` or LF). Blank lines and lines starting with `#` are skipped.
Maximal runs of consecutive records with the same (date, ref) TID form one
transaction. Grouping keeps no TID history, so a TID reappearing after
other TIDs starts a new transaction.
"""

from __future__ import annotations

import datetime
from itertools import groupby
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Tuple

from .model import Transaction, _Transaction, distinct_items, validate_label


class ParseError(ValueError):
    def __init__(self, message: str, lineno: int):
        self.lineno = lineno
        super().__init__(f"line {lineno}: {message}")


def _parse(line: str, fields: list, lineno: int, known: Optional[str]) -> Tuple[str, int, str]:
    """The (date, ref, name) of a line split at ";"; a date equal to `known` is not checked."""
    # The CLI decodes input with errors="surrogateescape", so a byte that is
    # not UTF-8 arrives as a lone surrogate, which cannot be encoded back.
    if not line.isascii():
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:
            raise ParseError("invalid UTF-8", lineno) from None
    if len(fields) != 3:
        cr = " (the line holds a CR; records end at LF)" if "\r" in line else ""
        raise ParseError(f"expected 3 fields, got {len(fields)}{cr}", lineno)
    date_s, ref_s, name = map(str.strip, fields)
    try:
        day = None if date_s == known else datetime.date.fromisoformat(date_s)
    except ValueError:
        raise ParseError(f"bad date {date_s!r}", lineno) from None
    try:
        ref = int(ref_s)
    except ValueError:
        raise ParseError(f"bad reference number {ref_s!r}", lineno) from None
    if ref < 0:
        raise ParseError(f"negative reference number {ref}", lineno)
    if not (ref_s.isascii() and ref_s.isdigit()):  # int() reads "+1", "1_0", non-ASCII digits
        raise ParseError(f"bad reference number {ref_s!r}", lineno)
    try:
        validate_label(name)
    except ValueError as exc:
        raise ParseError("empty item name" if not name else str(exc), lineno) from None
    if day and day.isoformat() != date_s:  # Python 3.11+ reads other ISO 8601 forms too
        raise ParseError(f"date must be YYYY-MM-DD, got {date_s!r}", lineno)
    return date_s, ref, name


def _records(lines: Iterable[str], on_error: str) -> Iterator[Tuple[str, int, str]]:
    # A record carries its TID's date, so most repeat the last valid record's. Such an ASCII line,
    # with a short digit ref (int() refuses thousands) and a trimmed name, skips `_parse`.
    if on_error not in ("stop", "skip"):
        raise ValueError(f"on_error must be stop or skip, got {on_error!r}")
    known = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if len(fields := line.split(";")) == 3 and fields[0] == known and line.isascii():
            _, ref, name = fields
            if ref.isdigit() and len(ref) < 20 and name == name.strip() != "" and "\n" not in name:
                yield known, int(ref), name
                continue
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        try:
            record = _parse(line, fields, lineno, known)
        except ParseError as exc:
            if on_error == "stop":
                raise
            import logging  # here, so that a clean stream never loads it

            logging.getLogger(__name__).warning("skipping bad record: %s", exc)
            continue
        known = record[0]
        yield record


def read_transactions(lines: Iterable[str], on_error: str = "stop") -> Iterator[Transaction]:
    """Group records into transactions lazily: each is yielded once the first
    record of the next TID, or the end of the stream, has been read."""
    for tid, run in groupby(_records(lines, on_error), key=itemgetter(0, 1)):
        # `_parse` checked each name, so the base constructor skips a second pass.
        yield _Transaction.__new__(Transaction, tid, distinct_items(map(itemgetter(2), run)))
