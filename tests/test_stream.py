import logging
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from mindstream.model import Transaction
from mindstream.stream import ParseError, read_transactions

from reference_stream import read_transactions as reference_read_transactions

names = st.text(
    alphabet=st.characters(blacklist_characters=";\n\r", blacklist_categories=("Cs",)),
    min_size=1,
).filter(lambda s: s.strip() == s and s)


def format_record(record):
    """The line of a (date, ref, name) record."""
    return "{};{};{}".format(*record)


def lines_of(records):
    return [format_record(r) + "\n" for r in records]


def parsed(line):
    """The TID and items of the one transaction that a record line makes."""
    (t,) = read_transactions([line + "\n"])
    return t.tid, t.items


def test_parse_record():
    assert parsed("2004-03-01;42;Smith") == (("2004-03-01", 42), {"Smith": 1})


def test_parse_record_trims_whitespace():
    assert parsed(" 2004-03-01 ; 7 ; A ") == (("2004-03-01", 7), {"A": 1})


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("2004-03-01;42", "expected 3 fields"),
        ("2004-03-01;42;a;b", "expected 3 fields"),
        ("2004-03-01;42;a\rb;c", "got 4 (the line holds a CR; records end at LF)"),
        ("2004-13-01;42;A", "bad date"),
        ("04-03-01;42;A", "date"),
        ("2004-03-01;x;A", "bad reference"),
        ("2004-03-01;-1;A", "negative reference"),
        ("2004-03-01;42;", "empty item name"),
        ("2004-W09-7;10;E", "date"),  # ISO week date
        ("2004-061;10;E", "date"),  # ISO ordinal date
        ("20040301;10;E", "date"),  # ISO basic format
        ("2004-03-01;1_0;E", "bad reference"),
        ("2004-03-01;+10;E", "bad reference"),
        ("2004-03-01;\u0661\u0660;E", "bad reference"),  # Arabic-Indic 10
        ("2004-03-01;-0;E", "bad reference"),
        ("2004-03-01;42;a\nb", "single-line"),  # only an iterable, not a file, holds this
    ],
)
def test_parse_record_errors(line, fragment):
    # Line numbers count the skipped comment lines too.
    with pytest.raises(ParseError) as err:
        list(read_transactions(["# header\n"] * 16 + [line + "\n"]))
    assert fragment in str(err.value)
    assert err.value.lineno == 17
    assert str(err.value).startswith("line 17: ")
    # The same error after a valid record, whose date is then not checked again.
    with pytest.raises(ParseError) as err:
        list(read_transactions(["2004-03-01;1;A\n", line + "\n"]))
    assert fragment in str(err.value) and err.value.lineno == 2


@given(names, st.integers(min_value=0, max_value=10**9))
def test_format_parse_round_trip(name, ref):
    assert parsed(format_record(("2004-03-01", ref, name))) == (("2004-03-01", ref), {name: 1})


@pytest.mark.parametrize("on_error", ["stop", "skip"])
@pytest.mark.parametrize(
    "bad,fragment",
    [
        ("2004-13-01", "bad date"),
        ("2004-W09-7", "date must be YYYY-MM-DD"),
        ("20040301", "date must be YYYY-MM-DD"),
    ],
)
def test_a_date_is_checked_unless_a_valid_record_carried_it(bad, fragment, on_error):
    # A date equal to the last valid record's is not parsed again; any other
    # date is, also after a bad line that carried it was skipped.
    lines = [
        "2004-03-01;1;A\n",
        "2004-03-01;1;B\n",
        f"{bad};2;C\n",
        f"{bad};2;D\n",
        "2004-03-02;3;E\n",
        "2004-03-01;4;F\n",
    ]
    if on_error == "stop":
        with pytest.raises(ParseError) as err:
            list(read_transactions(lines))
        assert err.value.lineno == 3 and fragment in str(err.value)
        return
    txns = list(read_transactions(lines, on_error="skip"))
    assert [(t.tid, list(t.items)) for t in txns] == [
        (("2004-03-01", 1), ["A", "B"]),
        (("2004-03-02", 3), ["E"]),
        (("2004-03-01", 4), ["F"]),
    ]


def test_group_by_consecutive_tid_runs():
    tids = [1, 1, 1, 1, 2, 2, 2]
    items = ["A", "A", "C", "D", "B", "C", "E"]
    records = [("2004-03-01", t, n) for t, n in zip(tids, items)]
    txns = list(read_transactions(lines_of(records)))
    assert [t.items for t in txns] == [{"A": 2, "C": 1, "D": 1}, {"B": 1, "C": 1, "E": 1}]
    assert txns[0].tid == ("2004-03-01", 1)


def test_group_empty_stream():
    assert list(read_transactions([])) == []
    assert list(read_transactions(["# only a comment\n", "\n"])) == []


def test_nonadjacent_equal_tids_do_not_merge():
    records = [("2004-03-01", t, n) for t, n in [(1, "A"), (2, "B"), (1, "C")]]
    txns = list(read_transactions(lines_of(records)))
    assert [t.items for t in txns] == [{"A": 1}, {"B": 1}, {"C": 1}]
    assert [t.tid[1] for t in txns] == [1, 2, 1]


def test_no_loss_no_reorder():
    rng = random.Random(2)
    records = [
        ("2004-03-01", rng.randint(1, 5), rng.choice("ABCDE")) for _ in range(100)
    ]
    txns = list(read_transactions(lines_of(records)))
    total = sum(sum(t.items.values()) for t in txns)
    assert total == len(records)
    # per-run multiset equality
    i = 0
    for t in txns:
        run = records[i : i + sum(t.items.values())]
        assert {r[:2] for r in run} == {t.tid}
        counts = {}
        for _, _, name in run:
            counts[name] = counts.get(name, 0) + 1
        assert counts == t.items
        i += len(run)


def test_transaction_is_yielded_after_one_record_of_the_next_tid():
    rng = random.Random(9)
    records = [
        ("2004-03-01", rng.randint(1, 8), rng.choice("ABCDEFG")) for _ in range(200)
    ]
    lines = lines_of(records)
    whole = list(read_transactions(lines))
    handed_out = 0

    def counting(lines):
        nonlocal handed_out
        for line in lines:
            handed_out += 1
            yield line

    run_end = 0
    pulled = []
    for t in read_transactions(counting(lines)):
        run_end += sum(t.items.values())
        assert run_end <= handed_out <= run_end + 1
        pulled.append(t)
    assert pulled == whole and handed_out == len(lines)


def _peak_bytes_while_draining(n_txns):
    lines = (f"2004-03-01;{tid};{name}\n" for tid in range(n_txns) for name in "ABC")
    tracemalloc.start()
    try:
        for _ in read_transactions(lines):
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_grouping_memory_does_not_grow_with_the_stream():
    small = _peak_bytes_while_draining(1_000)
    large = _peak_bytes_while_draining(10_000)
    assert large - small < 16 * 1024, (small, large)


def test_read_records_skips_blank_and_comment_lines():
    # A skipped line does not end a TID's run.
    text = "# header\n\n2004-03-01;1;A\n   \n  # indented\n2004-03-01;1;B\n"
    txns = list(read_transactions(text.splitlines(keepends=True)))
    assert [(t.tid, list(t.items)) for t in txns] == [(("2004-03-01", 1), ["A", "B"])]


def test_read_records_stop_vs_skip():
    text = "2004-03-01;1;A\nnot a record\n2004-03-01;1;B\n"
    lines = text.splitlines(keepends=True)
    with pytest.raises(ParseError) as err:
        list(read_transactions(lines, on_error="stop"))
    assert err.value.lineno == 2
    txns = list(read_transactions(lines, on_error="skip"))
    assert [list(t.items) for t in txns] == [["A", "B"]]


def test_a_label_with_a_line_break_is_skipped_like_any_bad_record():
    # The label rule is validate_label's, applied per line by the parser.
    lines = ["2004-03-01;1;A\n", "2004-03-01;1;a\nb\n", "2004-03-01;1;B\n"]
    with pytest.raises(ParseError) as err:
        list(read_transactions(lines))
    assert err.value.lineno == 2
    txns = list(read_transactions(lines, on_error="skip"))
    assert [list(t.items) for t in txns] == [["A", "B"]]


def test_read_transactions_worked_example():
    from helpers import worked_example_stream_text

    txns = list(read_transactions(worked_example_stream_text().splitlines(True)))
    assert [t.items for t in txns] == [
        {"A": 2, "C": 1, "D": 1},
        {"B": 1, "C": 1, "E": 1},
        {"A": 1, "B": 1, "C": 1, "E": 1},
        {"B": 1, "C": 1, "E": 1},
    ]


def test_a_parsed_transaction_equals_a_checked_one():
    # The parser builds its transactions without the constructor's checks,
    # which its own per-record checks make a second pass.
    lines = ["2004-03-01;7;B\n", "2004-03-01;7;A\n", "2004-03-01;7;B\n"]
    (t,) = read_transactions(lines)
    assert type(t) is Transaction
    assert t == Transaction(("2004-03-01", 7), {"B": 2, "A": 1})


def test_unknown_on_error_is_a_value_error():
    with pytest.raises(ValueError, match="on_error must be stop or skip"):
        list(read_transactions(["2004-03-01;1;A\n"], on_error="bogus"))


# Fields that the reader's common-record path must accept or pass on exactly
# as `_parse` does: repeated and padded dates, refs that int() reads but the
# format rejects or cannot read (int() refuses a ref of thousands of digits),
# names that need trimming or are blank, a lone surrogate (what a non-UTF-8
# byte decodes to) and a name that holds a line break.
DATES = ["2004-03-01"] * 4 + ["2004-03-02", " 2004-03-01", "2004-03-01 ", "2004-13-01"]
LONG_REF = "1" * 5000
REFS = ["1", "1", "2", "007", "+1", "1_0", " 7", "7 ", "\u0661", "-1", ""]
REFS += ["9" * 19, "9" * 20, LONG_REF]
NAMES = ["A", "B", "A", " A ", "A ", "   ", "", "é", "a\udcffb", "a\nb", "a b", "\x1c"]
record_lines = st.builds(
    "{}{};{};{}{}{}".format,
    st.sampled_from(["", "", " "]),
    st.sampled_from(DATES),
    st.sampled_from(REFS),
    st.sampled_from(NAMES),
    st.sampled_from(["", "", "", ";x"]),
    st.sampled_from(["\n", "\n", "\r\n", ""]),
)
other_lines = st.sampled_from(["# c\n", "  # c;1;A\r\n", "\n", "  \n", "\r\n"])


class _Skipped(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def _outcome(read, lines, on_error, logger_name):
    """The transactions, or the ParseError's text and line; and the skipped lines."""
    handler, logger = _Skipped(), logging.getLogger(logger_name)
    logger.addHandler(handler)
    try:
        return list(read(lines, on_error)), handler.messages
    except ParseError as exc:
        return (str(exc), exc.lineno), handler.messages
    finally:
        logger.removeHandler(handler)


@settings(max_examples=400)
@given(st.lists(st.one_of(record_lines, record_lines, other_lines), max_size=20))
@example(["2004-03-01;1;A\n", "2004-03-01;1;a\nb\n", "2004-03-01;1;B\n"])
@example(["2004-03-01;1;A\n", "2004-03-01; 7;A\n", "2004-03-01;1; B \r\n", "2004-03-01;1;   \n"])
@example(["2004-03-01;1;A\n", "2004-03-01;1;\n", "2004-03-01;;A\n", "2004-03-01 ;1;A\n"])
@example(["2004-03-01;1;A\n", "2004-03-01;+1;A\n", "2004-03-01;1_0;A\n", "2004-03-01;\u0661;A\n"])
@example(["2004-03-01;1;A\n", "2004-03-01;007;A\n", "2004-03-01;1;A;x\n", "2004-03-01;1;\udcff\n"])
@example(["2004-03-01;1;A\n", f"2004-03-01;{LONG_REF};A\n", "2004-03-01;2;B\n"])
@example(["2004-03-01;1;A\n", f"2004-03-01;{'9' * 19};A\n", f"2004-03-01;{'9' * 20};A\n"])
def test_records_match_the_reference_reader(lines):
    """The common-record path reads what `_parse` would: the same transactions,
    or the same error at the same line, and under skip the same lines skipped."""
    for on_error in ("stop", "skip"):
        assert _outcome(read_transactions, lines, on_error, "mindstream.stream") == _outcome(
            reference_read_transactions, lines, on_error, "reference_stream"
        )
