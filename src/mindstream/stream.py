"""Line-oriented transactional stream parsing and TID grouping.

Record syntax: `date;ref;name`, one per line, UTF-8, LF-terminated.
Fields are trimmed; `date` is YYYY-MM-DD, `ref` a non-negative decimal
integer, `name` a non-empty item label (no `;` allowed). Blank lines and
lines starting with `#` are skipped. Maximal runs of consecutive records
with the same (date, ref) TID form one transaction; a TID reappearing
after other TIDs starts a new transaction.
"""

from __future__ import annotations

import datetime
import logging
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

from .model import Transaction

TransactionId = Tuple[str, int]


class ParseError(ValueError):
    def __init__(self, message: str, lineno: Optional[int] = None):
        self.lineno = lineno
        prefix = f"line {lineno}: " if lineno is not None else ""
        super().__init__(prefix + message)


@dataclass(frozen=True)
class StreamRecord:
    date: str  # ISO-8601 calendar date
    ref: int
    name: str

    @property
    def tid(self) -> TransactionId:
        return (self.date, self.ref)


def parse_record(line: str, lineno: Optional[int] = None) -> StreamRecord:
    # The CLI decodes input with errors="surrogateescape", so a byte that is
    # not UTF-8 arrives as a lone surrogate, which cannot be encoded back.
    if not line.isascii():
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:
            raise ParseError("invalid UTF-8", lineno) from None
    fields = line.split(";")
    if len(fields) != 3:
        raise ParseError(f"expected 3 fields, got {len(fields)}", lineno)
    date_s, ref_s, name = (f.strip() for f in fields)
    try:
        datetime.date.fromisoformat(date_s)
    except ValueError:
        raise ParseError(f"bad date {date_s!r}", lineno) from None
    try:
        ref = int(ref_s)
    except ValueError:
        raise ParseError(f"bad reference number {ref_s!r}", lineno) from None
    if ref < 0:
        raise ParseError(f"negative reference number {ref}", lineno)
    if not name:
        raise ParseError("empty item name", lineno)
    if len(date_s) != 10:
        raise ParseError(f"date must be YYYY-MM-DD, got {date_s!r}", lineno)
    return StreamRecord(date_s, ref, name)


def format_record(record: StreamRecord) -> str:
    return f"{record.date};{record.ref};{record.name}"


class TransactionGrouper:
    """Incremental consecutive-run grouping; boundary-agnostic.

    Feed records one at a time; each feed returns the transaction flushed
    by a TID change (usually none). Call finish() at end of stream.
    """

    def __init__(self) -> None:
        self._tid: Optional[TransactionId] = None
        self._items: dict = {}
        self.repeated_tids: List[TransactionId] = []
        self._seen_tids: set = set()

    def feed(self, record: StreamRecord) -> List[Transaction]:
        flushed: List[Transaction] = []
        if self._tid is not None and record.tid != self._tid:
            flushed.append(self._flush())
        if self._tid is None:
            if record.tid in self._seen_tids:
                self.repeated_tids.append(record.tid)
            self._tid = record.tid
        self._items[record.name] = self._items.get(record.name, 0) + 1
        return flushed

    def finish(self) -> List[Transaction]:
        return [self._flush()] if self._tid is not None else []

    def _flush(self) -> Transaction:
        txn = Transaction(self._tid, self._items)
        self._seen_tids.add(self._tid)
        self._tid = None
        self._items = {}
        return txn


def group_transactions(records: Iterable[StreamRecord]) -> Iterator[Transaction]:
    grouper = TransactionGrouper()
    for record in records:
        yield from grouper.feed(record)
    yield from grouper.finish()


def read_records(lines: Iterable[str], on_error: str = "stop") -> Iterator[StreamRecord]:
    """Parse a line stream, skipping blanks and `#` comments.

    on_error: "stop" raises ParseError; "skip" drops bad lines.
    """
    if on_error not in ("stop", "skip"):
        raise ValueError(f"on_error must be stop or skip, got {on_error!r}")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        try:
            yield parse_record(line, lineno)
        except ParseError as exc:
            if on_error == "stop":
                raise
            logging.getLogger(__name__).warning("skipping bad record: %s", exc)


def read_transactions(lines: Iterable[str], on_error: str = "stop") -> Iterator[Transaction]:
    return group_transactions(read_records(lines, on_error))
