import hashlib
import logging
import os
import random
import shlex
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import mindstream
from mindstream import cli
from mindstream.cli import build_parser, main
from mindstream.engine import Engine
from mindstream.model import PARAM_TYPES, EngineParams
from mindstream.queries import QueryUsageError, run_static_query
from mindstream.snapshot import (
    _parse_signature,
    _tokenize,
    load_snapshot,
    parse_snapshot,
    render_snapshot,
)

from helpers import (
    random_transactions,
    replay,
    triangle_gap_threshold,
    txn,
    worked_example_stream_text,
    worked_example_transactions,
)
from reference_memory import ReferenceEngine


@pytest.fixture()
def stream_file(tmp_path):
    path = tmp_path / "stream.txt"
    path.write_text(worked_example_stream_text(), encoding="utf-8")
    return path


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_run_writes_snapshot_and_events(tmp_path, stream_file, capsys):
    snap = tmp_path / "out.snap"
    events = tmp_path / "events.log"
    assert run_cli("run", "--input", stream_file, "--snapshot", snap, "--events", events) == 0
    state = load_snapshot(str(snap))
    assert state.mmap.step == 4
    assert sorted(state.mmap.cells) == ["A", "B", "C", "D", "E"]
    log = events.read_text().splitlines()
    assert "1 cell-created A" in log
    assert any(l.startswith("2 edge-created B") for l in log)


def test_empty_input_yields_empty_snapshot(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("", encoding="utf-8")
    assert run_cli("run", "--input", empty) == 0
    out = capsys.readouterr().out
    state = parse_snapshot(out)
    assert state.mmap.step == 0 and len(state.mmap.cells) == 0


def test_parse_error_stop_vs_skip(tmp_path, capsys):
    good = worked_example_stream_text()
    bad = good.splitlines(True)
    bad.insert(2, "garbage line\n")
    bad_file = tmp_path / "bad.txt"
    bad_file.write_text("".join(bad), encoding="utf-8")
    good_file = tmp_path / "good.txt"
    good_file.write_text(good, encoding="utf-8")

    assert run_cli("run", "--input", bad_file) == 1
    assert "line 3" in capsys.readouterr().err

    snap_skip = tmp_path / "skip.snap"
    snap_good = tmp_path / "good.snap"
    assert run_cli("run", "--input", bad_file, "--on-parse-error", "skip",
                   "--snapshot", snap_skip) == 0
    assert run_cli("run", "--input", good_file, "--snapshot", snap_good) == 0
    assert snap_skip.read_bytes() == snap_good.read_bytes()


# A line that is not UTF-8 between two good transactions.
BAD_UTF8 = b"2020-01-01;1;A\n2020-01-01;1;\xff\xfe\n2020-01-02;2;B\n2020-01-02;2;C\n"


def test_invalid_utf8_is_a_parse_error(tmp_path, capsys):
    bad_file = tmp_path / "bad.txt"
    bad_file.write_bytes(BAD_UTF8)
    good_file = tmp_path / "good.txt"
    good_file.write_bytes(BAD_UTF8.replace(b"2020-01-01;1;\xff\xfe\n", b""))

    assert run_cli("run", "--input", bad_file) == 1
    assert capsys.readouterr().err == "error: line 2: invalid UTF-8\n"
    assert run_cli("apriori", "--input", bad_file, "--minsup", 1) == 1
    assert capsys.readouterr().err == "error: line 2: invalid UTF-8\n"

    snap_skip = tmp_path / "skip.snap"
    snap_good = tmp_path / "good.snap"
    assert run_cli("run", "--input", bad_file, "--on-parse-error", "skip",
                   "--snapshot", snap_skip) == 0
    assert run_cli("run", "--input", good_file, "--snapshot", snap_good) == 0
    assert snap_skip.read_bytes() == snap_good.read_bytes()


# A record whose ref is too long for int() to read, after one whose date it repeats.
LONG_REF = "1" * 5000
LONG_REF_STREAM = f"2020-01-01;1;A\n2020-01-01;{LONG_REF};B\n2020-01-02;2;C\n2020-01-02;2;D\n"


def test_a_ref_too_long_for_int_is_a_parse_error(tmp_path, capsys, caplog):
    bad_file = tmp_path / "bad.txt"
    bad_file.write_text(LONG_REF_STREAM, encoding="utf-8")
    good_file = tmp_path / "good.txt"
    good_file.write_text(LONG_REF_STREAM.replace(f"2020-01-01;{LONG_REF};B\n", ""), encoding="utf-8")
    message = f"line 2: bad reference number '{LONG_REF}'"

    assert run_cli("run", "--input", bad_file) == 1
    assert capsys.readouterr().err == f"error: {message}\n"

    snap_skip = tmp_path / "skip.snap"
    snap_good = tmp_path / "good.snap"
    with caplog.at_level(logging.WARNING, logger="mindstream.stream"):
        assert run_cli("run", "--input", bad_file, "--on-parse-error", "skip",
                       "--snapshot", snap_skip) == 0
    assert caplog.messages == [f"skipping bad record: {message}"]
    assert run_cli("run", "--input", good_file, "--snapshot", snap_good) == 0
    assert snap_skip.read_bytes() == snap_good.read_bytes()


def test_invalid_utf8_on_stdin_is_a_parse_error():
    src = os.path.dirname(os.path.dirname(mindstream.__file__))
    env = dict(os.environ, PYTHONPATH=src)

    def run(*flags):
        argv = [sys.executable, "-m", "mindstream.cli", "run", "--input", "-", *flags]
        return subprocess.run(argv, input=BAD_UTF8, capture_output=True, env=env, timeout=60)

    stop = run()
    assert stop.returncode == 1
    assert stop.stderr.decode().startswith("error: line 2: invalid UTF-8")
    skip = run("--on-parse-error", "skip")
    assert skip.returncode == 0
    # In a subprocess, so that no log capture stands in for the handler.
    assert skip.stderr.decode() == "skipping bad record: line 2: invalid UTF-8\n"
    cells = [l.split()[1] for l in skip.stdout.decode().splitlines() if l.startswith("cell ")]
    assert cells == ["A", "B", "C"]


# A lone CR inside a name, in a record with a CRLF ending; then a bad record on LF line 4;
# and a file with CR-only line endings, which is one line.
CR_STREAM = b"2020-01-01;1;a\rb\r\n2020-01-01;1;C\n2020-01-02;2;D\n"
CR_CASES = {
    "good": (CR_STREAM, None),
    "bad": (CR_STREAM + b"2020-01-03;3\n", "line 4: expected 3 fields, got 2"),
    "cr-only": (
        b"2020-01-01;1;A\r2020-01-01;1;B\r2020-01-02;2;C\r",
        "line 1: expected 3 fields, got 7 (the line holds a CR; records end at LF)",
    ),
}


@pytest.mark.parametrize("case", CR_CASES)
def test_input_lines_end_at_lf_alone(tmp_path, capsys, case):
    """A lone CR stays in its record, through a file and on stdin alike:
    `a\\rb` is one label, which the snapshot quotes, and an error names
    the line by its count of LFs."""
    data, error = CR_CASES[case]
    path, snap = tmp_path / "cr.txt", tmp_path / "cr.snap"
    path.write_bytes(data)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mindstream.__file__)))
    stdin = subprocess.run(
        [sys.executable, "-m", "mindstream.cli", "run", "--input", "-"],
        input=data, capture_output=True, env=env, timeout=60,
    )
    if error:
        assert run_cli("run", "--input", path) == 1
        assert capsys.readouterr().err == f"error: {error}\n"
        assert stdin.returncode == 1 and stdin.stderr.decode() == f"error: {error}\n"
    else:
        assert run_cli("run", "--input", path, "--snapshot", snap) == 0
        assert stdin.returncode == 0 and stdin.stderr == b""
        text = snap.read_bytes().decode()
        assert 'cell "a\rb" ' in text
        assert sorted(parse_snapshot(text).mmap.cells) == ["C", "D", "a\rb"]
        assert stdin.stdout == snap.read_bytes()


@pytest.mark.parametrize(
    "argv", [["run"], ["trace", "A", "B"], ["apriori", "--minsup", "1"]], ids=lambda a: a[0]
)
def test_closed_stdin_is_an_input_error(argv):
    """With fd 0 closed, Python sets `sys.stdin` to None: `--input -` is then
    an unreadable input, not a traceback."""
    src = os.path.dirname(os.path.dirname(mindstream.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    script = 'exec "$0" -m mindstream.cli "$@" --input - <&-'
    proc = subprocess.run(
        ["sh", "-c", script, sys.executable, *argv], capture_output=True, env=env, timeout=60
    )
    err = proc.stderr.decode()
    assert proc.returncode == 1, err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error: -: "), err


@pytest.mark.parametrize("command", ["run", "run-to-stdout", "query", "trace"])
def test_a_closed_stdout_is_a_reader_that_has_gone(tmp_path, stream_file, command):
    """With fd 1 closed, Python sets `sys.stdout` to None: the command writes
    its files, prints nothing, and exits 1 with nothing on stderr."""
    src = os.path.dirname(os.path.dirname(mindstream.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    run = ["run", "--input", stream_file, "--trace", "B", "C", "--horizon", 3]
    expected = [tmp_path / "given.snap", tmp_path / "given.log"]
    assert run_cli(*run, "--snapshot", expected[0], "--events", expected[1]) == 0
    snap, events = tmp_path / "out.snap", tmp_path / "out.log"
    argv = {
        "run": run + ["--snapshot", snap, "--events", events],
        "run-to-stdout": run,
        "query": ["query", "--snapshot", expected[0], "patterns"],
        "trace": ["trace", "--input", stream_file, "B", "C"],
    }[command]
    script = 'exec "$0" -m mindstream.cli "$@" >&-'
    proc = subprocess.run(
        ["sh", "-c", script, sys.executable, *map(str, argv)],
        capture_output=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stderr.decode()) == (1, "")
    if command == "run":
        assert snap.read_bytes() == expected[0].read_bytes()
        assert events.read_bytes() == expected[1].read_bytes()


def run_with_closed_stdout(argv, unbuffered):
    """Run `argv` in a subprocess whose stdout's reader is gone before the
    first write; check that it exits 1 with no traceback on stderr."""
    src = os.path.dirname(os.path.dirname(mindstream.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED="1")
    if not unbuffered:
        del env["PYTHONUNBUFFERED"]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    err = proc.stderr.decode()
    assert "Traceback" not in err and "Exception ignored" not in err, err
    assert proc.returncode == 1


# Buffered, the write fails at the final flush; unbuffered, at the print.
@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_is_not_a_traceback(tmp_path, stream_file, unbuffered):
    snap = tmp_path / "out.snap"
    assert run_cli("run", "--input", stream_file, "--snapshot", snap) == 0
    argv = [sys.executable, "-m", "mindstream.cli", "query", "--snapshot", str(snap), "skeleton"]
    run_with_closed_stdout(argv, unbuffered)


@pytest.mark.parametrize("unbuffered", [False, True])
def test_run_writes_its_files_before_printing_to_a_closed_stdout(tmp_path, unbuffered):
    rng = random.Random(4)
    stream = tmp_path / "stream.txt"
    stream.write_text("".join(
        f"2004-03-01;{ref};{item}\n"
        for ref in range(3000)
        for item in rng.sample("ABCDEFGH", rng.randint(1, 4))
    ))
    flags = ["--input", stream, "--trace", "A", "B", "--horizon", 3000]
    expected = [tmp_path / "expected.snap", tmp_path / "expected.log"]
    assert run_cli("run", *flags, "--snapshot", expected[0], "--events", expected[1]) == 0
    snap, events = tmp_path / "out.snap", tmp_path / "out.log"
    argv = [sys.executable, "-m", "mindstream.cli", "run", *map(str, flags)]
    run_with_closed_stdout(argv + ["--snapshot", str(snap), "--events", str(events)], unbuffered)
    assert snap.read_bytes() == expected[0].read_bytes()
    assert events.read_bytes() == expected[1].read_bytes()


@pytest.mark.parametrize("script", ["run_worked_example.py", "random_stream_demo.py"])
def test_scripts_exit_cleanly_on_a_closed_stdout(script):
    scripts = os.path.join(os.path.dirname(os.path.dirname(__file__)), "scripts")
    run_with_closed_stdout([sys.executable, os.path.join(scripts, script)], unbuffered=True)


def test_worked_example_script_prints_the_six_rules():
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_worked_example.py"
    done = subprocess.run([sys.executable, str(script)], capture_output=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, b"")
    rules = ["rules:", "  B => C", "  B => E", "  C => B", "  C => E", "  E => B", "  E => C", ""]
    assert "\n".join(rules) in done.stdout.decode()
    assert len(done.stdout.splitlines()) == 45
    digest = "de20f2bea83da8c2e9a8d3d258097bc6c9d16fe4125349ca20f58d58ddf4be8c"
    assert hashlib.sha256(done.stdout).hexdigest() == digest


@pytest.mark.parametrize("argv", [["run"], ["trace", "A", "B"], ["apriori", "--minsup", "1"]])
def test_missing_input_is_a_clean_error(tmp_path, capsys, argv):
    missing = tmp_path / "missing.txt"
    assert run_cli(*argv, "--input", missing) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {missing}: ") and "Traceback" not in err


# Each EngineParams field, its flag, and a value that is not its default.
PARAM_FLAGS = [
    ("eta", "--eta", "0.3"),
    ("lam", "--lambda", "0.7"),
    ("beta_w", "--beta-w", "0.11"),
    ("beta_a", "--beta-a", "0.13"),
    ("epsilon", "--epsilon", "0.017"),
    ("theta_w", "--theta-w", "0.61"),
    ("theta_a", "--theta-a", "0.19"),
    ("promote_after", "--promote-after", "5"),
]


def test_every_param_round_trips_through_flags_and_snapshot(tmp_path, capsys):
    assert [name for name, _, _ in PARAM_FLAGS] == list(PARAM_TYPES)
    empty = tmp_path / "empty.txt"
    empty.write_text("", encoding="utf-8")
    snap = tmp_path / "params.snap"
    flags = [arg for _, flag, value in PARAM_FLAGS for arg in (flag, value)]
    assert run_cli("run", "--input", empty, "--snapshot", snap, *flags) == 0
    text = snap.read_text(encoding="utf-8")
    assert text.splitlines()[2:] == [f"param {n} {v}" for n, _, v in PARAM_FLAGS]
    state = parse_snapshot(text)
    assert state.params == EngineParams(
        **{n: type(getattr(EngineParams(), n))(v) for n, _, v in PARAM_FLAGS}
    )
    assert render_snapshot(state) == text

    assert run_cli("run", "--input", empty) == 0
    assert parse_snapshot(capsys.readouterr().out).params == EngineParams()


def test_query_weight_on_post_t1_snapshot(tmp_path, capsys):
    engine = replay(worked_example_transactions()[:1])
    snap = tmp_path / "t1.snap"
    snap.write_text(render_snapshot(engine.state), encoding="utf-8")
    assert run_cli("query", "--snapshot", snap, "weight", "A", "C") == 0
    assert capsys.readouterr().out.strip() == "0.333333"
    assert run_cli("query", "--snapshot", snap, "weight", "A", "Z") == 0
    assert capsys.readouterr().out.strip() == "absent"


def test_query_rules_on_final_snapshot(tmp_path, capsys):
    engine = replay(worked_example_transactions())
    theta = triangle_gap_threshold(engine)
    snap = tmp_path / "final.snap"
    snap.write_text(render_snapshot(engine.state), encoding="utf-8")
    assert run_cli("query", "--snapshot", snap, "rules", "--theta-w", theta) == 0
    out = capsys.readouterr().out.strip().splitlines()
    heads = [tuple(l.split()[:3]) for l in out]
    assert heads == [
        ("B", "=>", "C"), ("B", "=>", "E"),
        ("C", "=>", "B"), ("C", "=>", "E"),
        ("E", "=>", "B"), ("E", "=>", "C"),
    ]


def test_query_static_is_pure(tmp_path):
    engine = replay(worked_example_transactions())
    state = engine.state
    before = hashlib.sha256(render_snapshot(state).encode()).hexdigest()
    for q in (["skeleton"], ["rules"], ["patterns"], ["ltm", "all"], ["ltm", "open"],
              ["ltm", "closed"], ["strongest", "--top", "2"], ["activation", "C"],
              ["weight", "B", "C"]):
        run_static_query(state, q)
    after = hashlib.sha256(render_snapshot(state).encode()).hexdigest()
    assert before == after


def test_query_usage_errors(tmp_path, capsys):
    engine = replay(worked_example_transactions())
    with pytest.raises(QueryUsageError):
        run_static_query(engine.state, ["weight", "A"])
    with pytest.raises(QueryUsageError):
        run_static_query(engine.state, ["nonsense"])
    snap = tmp_path / "s.snap"
    snap.write_text(render_snapshot(engine.state), encoding="utf-8")
    assert run_cli("query", "--snapshot", snap, "weight", "A") == 2


def test_query_strongest_top_below_one_names_the_option(tmp_path, capsys):
    snap = tmp_path / "s.snap"
    snap.write_text(render_snapshot(replay(worked_example_transactions()).state))
    assert run_cli("query", "--snapshot", snap, "strongest", "--top", "0") == 2
    assert capsys.readouterr().err == "usage error: bad value for --top: '0'\n"


def readme_commands():
    """The `mindstream ...` commands of README's CLI block, `\\`-continued
    lines joined, each as an argument list without the program name."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = block.replace("\\\n", " ").splitlines()
    return [shlex.split(c)[1:] for c in commands if c.startswith("mindstream ")]


def test_readme_cli_commands_run(tmp_path, monkeypatch, capsys):
    commands = readme_commands()
    assert len(commands) >= 9
    (tmp_path / "stream.txt").write_text(worked_example_stream_text(), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, argv
        assert capsys.readouterr().err == "", argv


def test_query_answers_read_back_as_their_labels():
    # Unquoted, "a b" would read as two labels and "x|y" as two members.
    labels = sorted(["a b", "c", "x|y", 'q"\\'])
    engine = Engine(EngineParams(theta_w=0.2, promote_after=1))
    for _ in range(2):
        engine.ingest(txn(labels))
    state = parse_snapshot(render_snapshot(engine.state))

    def answer(*query):
        return run_static_query(state, list(query)).splitlines()

    def tokens(*query):
        return [_tokenize(line, 1) for line in answer(*query)]

    pairs = [list(pair) for pair in combinations(labels, 2)]
    skeleton = tokens("skeleton")
    assert skeleton[0] == ["nodes", *labels]
    assert [t[1:3] for t in skeleton[1:]] == pairs
    rules = [[t[0], t[2]] for t in tokens("rules")]
    assert rules == sorted(pairs + [pair[::-1] for pair in pairs])
    assert [_parse_signature(t[1]) for t in tokens("patterns")] == [tuple(labels)]
    assert [_parse_signature(t[0]) for t in tokens("ltm")] == [tuple(labels)]
    # A strongest line brackets its signature: "<rank> [<signature>] mean-weight <w>".
    inner = [line.split(" ", 1)[1].rsplit(" mean-weight ", 1)[0] for line in answer("strongest")]
    assert [_parse_signature(*_tokenize(s[1:-1], 1)) for s in inner] == [tuple(labels)]


def test_trace_bc_over_replay(stream_file, capsys):
    # registered after step 1, the B-C weight strictly increases at steps 2-4
    assert run_cli("trace", "--input", stream_file, "B", "C", "-k", "3",
                   "--register-after", "1") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    steps = [int(l.split()[0]) for l in lines]
    assert steps == [2, 3, 4]
    weights = [float(l.split()[1]) for l in lines]
    assert weights[0] < weights[1] < weights[2]


@pytest.mark.parametrize("after", [4, 9])
def test_trace_registered_after_the_last_step_is_an_error(stream_file, capsys, after):
    assert run_cli("trace", "--input", stream_file, "B", "C",
                   "--register-after", after) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: --register-after {after}: the stream ends at step 4, "
        "so the trace never ran"
    ]


def test_trace_never_created_pair(stream_file, capsys):
    assert run_cli("trace", "--input", stream_file, "X", "Y", "-k", "4") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    assert all(l.split()[1] == "absent" for l in lines)


def test_trace_horizon_one():
    engine = Engine()
    engine.register_query("A", "C", horizon=1)
    for t in worked_example_transactions():
        engine.ingest(t)
    assert engine.emissions == [(1, ("A", "C"), repr(1 / 3))]
    assert engine.queries == []


def test_each_registration_reports_over_its_own_window():
    # Each registration keeps its own window, also of a pair registered twice.
    first, second, twice = Engine(), Engine(), Engine()
    for engine in (first, second, twice, twice):
        engine.register_query("C", "A", horizon=3)
    for t in worked_example_transactions():
        for engine in (first, second, twice):
            engine.ingest(t)
    for engine in (first, second):
        assert [(s, p) for s, p, _ in engine.emissions] == [(s, ("A", "C")) for s in (1, 2, 3)]
    assert [s for s, _, _ in twice.emissions] == [1, 1, 2, 2, 3, 3]
    assert first.emissions == second.emissions == twice.emissions[::2]


@pytest.mark.parametrize("after", [0, 1, 2])
@pytest.mark.parametrize("horizon", [1, 2])
def test_a_late_registration_reports_the_next_horizon_steps(after, horizon):
    transactions = worked_example_transactions()
    engine = replay(transactions[:after])
    engine.register_query("B", "C", horizon=horizon)
    for i, t in enumerate(transactions[after:], start=after + 1):
        engine.ingest(t)
        assert (engine.queries == []) == (i >= after + horizon)
    assert [s for s, _, _ in engine.emissions] == list(range(after + 1, after + horizon + 1))


def test_a_registration_for_a_later_step_starts_after_it():
    transactions = worked_example_transactions()
    ahead = Engine()
    ahead.register_query("B", "C", horizon=2, after=2)
    late = replay(transactions[:2])
    late.register_query("B", "C", horizon=2)
    for t in transactions[2:]:
        late.ingest(t)
    for i, t in enumerate(transactions, start=1):
        ahead.ingest(t)
        assert ahead.emissions == late.emissions[: max(0, i - 2)]
    assert [s for s, _, _ in ahead.emissions] == [3, 4]
    assert ahead.queries == []


@pytest.mark.parametrize(
    "a, b, horizon, after",
    [
        ("B", "C", 1, 1),  # before the current step
        ("B", "C", 1, -1),
        ("x\ny", "C", 1, None),
        (" ", "C", 1, None),
        ("C", "C", 1, None),
        ("B", "C", 0, None),
        ("B", "C", 2.5, None),
        ("B", "C", True, None),
        ("B", "C", 1, 2.5),
    ],
)
def test_a_bad_registration_is_rejected(a, b, horizon, after):
    engine = replay(worked_example_transactions()[:2])
    with pytest.raises(ValueError):
        engine.register_query(a, b, horizon, after)
    assert engine.queries == []


def test_apriori_subcommand(stream_file, capsys):
    assert run_cli("apriori", "--input", stream_file, "--minsup", "2",
                   "--minconf", "1.0", "--show-border") == 0
    out = capsys.readouterr().out
    assert "frequent {B,C,E} 3" in out
    assert "border k=2 {A,B}" in out and "border k=2 {A,E}" in out
    assert "rule {B} => {C} supp 3 conf 1.000000" in out
    assert "rule {C} => {B}" not in out


def test_apriori_prints_the_worked_example_in_full(stream_file, capsys):
    argv = ["--minsup", "2", "--show-border", "--minconf", "0"]
    assert run_cli("apriori", "--input", stream_file, *argv) == 0
    assert capsys.readouterr().out.splitlines() == [
        "frequent {A} 2",
        "frequent {B} 3",
        "frequent {C} 4",
        "frequent {E} 3",
        "frequent {A,C} 2",
        "frequent {B,C} 3",
        "frequent {B,E} 3",
        "frequent {C,E} 3",
        "frequent {B,C,E} 3",
        "border k=1 {D}",
        "border k=2 {A,B}",
        "border k=2 {A,E}",
        "rule {A} => {C} supp 2 conf 1.000000",
        "rule {C} => {A} supp 2 conf 0.500000",
        "rule {B} => {C} supp 3 conf 1.000000",
        "rule {C} => {B} supp 3 conf 0.750000",
        "rule {B} => {E} supp 3 conf 1.000000",
        "rule {E} => {B} supp 3 conf 1.000000",
        "rule {C} => {E} supp 3 conf 0.750000",
        "rule {E} => {C} supp 3 conf 1.000000",
        "rule {B} => {C,E} supp 3 conf 1.000000",
        "rule {C} => {B,E} supp 3 conf 0.750000",
        "rule {E} => {B,C} supp 3 conf 1.000000",
        "rule {B,C} => {E} supp 3 conf 1.000000",
        "rule {B,E} => {C} supp 3 conf 1.000000",
        "rule {C,E} => {B} supp 3 conf 1.000000",
    ]


def test_apriori_quotes_a_label_that_would_read_as_two(tmp_path, capsys):
    # Author names hold commas: unquoted, "Smith, J" would read as Smith and J.
    stream = tmp_path / "authors.txt"
    records = [(1, "Smith, J"), (1, "Lee"), (2, "Smith"), (2, " J"), (2, "Lee")]
    stream.write_text("".join(f"2004-01-01;{ref};{name}\n" for ref, name in records))
    assert run_cli("apriori", "--input", stream, "--minsup", "1") == 0
    assert capsys.readouterr().out.splitlines() == [
        "frequent {J} 1",
        "frequent {Lee} 2",
        "frequent {Smith} 1",
        'frequent {"Smith, J"} 1',
        "frequent {J,Lee} 1",
        "frequent {J,Smith} 1",
        "frequent {Lee,Smith} 1",
        'frequent {Lee,"Smith, J"} 1',
        "frequent {J,Lee,Smith} 1",
    ]
    # A label that a snapshot leaves bare is quoted if it holds , { or },
    # and escaped as a snapshot escapes.
    stream.write_text('2004-01-01;1;Lee,J\n2004-01-01;1;{"x"}\n')
    assert run_cli("apriori", "--input", stream, "--minsup", "1", "--minconf", "1") == 0
    assert capsys.readouterr().out.splitlines() == [
        'frequent {"Lee,J"} 1',
        r'frequent {"{\"x\"}"} 1',
        r'frequent {"Lee,J","{\"x\"}"} 1',
        r'rule {"Lee,J"} => {"{\"x\"}"} supp 1 conf 1.000000',
        r'rule {"{\"x\"}"} => {"Lee,J"} supp 1 conf 1.000000',
    ]


def test_apriori_minsup_frac_rounds_up_within_bounds(stream_file, capsys):
    assert run_cli("apriori", "--input", stream_file, "--minsup-frac", "0.75") == 0
    out = capsys.readouterr().out  # ceil(0.75 * 4) = 3
    assert "frequent {B,C,E} 3" in out and "{A}" not in out
    assert run_cli("apriori", "--input", stream_file, "--minsup-frac", "1") == 0
    assert capsys.readouterr().out == "frequent {C} 4\n"


def test_event_log_reports_promotions(tmp_path, stream_file):
    probe = replay(worked_example_transactions())
    theta = triangle_gap_threshold(probe)
    extended = worked_example_stream_text() + "2004-03-02;9;Z\n"
    path = tmp_path / "ext.txt"
    path.write_text(extended, encoding="utf-8")
    events = tmp_path / "ev.log"
    assert run_cli("run", "--input", path, "--theta-w", theta,
                   "--promote-after", "2", "--events", events,
                   "--snapshot", tmp_path / "s.snap") == 0
    log = events.read_text().splitlines()
    assert "5 pattern-promoted B|C|E" in log


def test_replay_equivalence_across_chunkings(tmp_path):
    rng = random.Random(17)
    lines = []
    tid = 0
    for _ in range(120):
        tid += 1
        for name in rng.sample("ABCDEFGH", rng.randint(1, 4)):
            lines.append(f"2004-03-01;{tid};{name}")
    text = "\n".join(lines) + "\n"
    base = tmp_path / "base.txt"
    base.write_text(text, encoding="utf-8")
    snap = tmp_path / "base.snap"
    assert run_cli("run", "--input", base, "--snapshot", snap) == 0
    baseline = snap.read_text(encoding="utf-8")

    from mindstream.stream import read_transactions

    for chunk in (1, 7, 500):
        chunks = (lines[i : i + chunk] for i in range(0, len(lines), chunk))
        engine = Engine(EngineParams())
        for t in read_transactions(line for c in chunks for line in c):
            engine.ingest(t)
        assert render_snapshot(engine.state) == baseline


@pytest.mark.parametrize(
    "content",
    [
        None,  # missing file
        "dir",  # unreadable: a directory
        b"MINDMAP v1\nstep 1\n\xff\xfe\n",  # not UTF-8
        b"MINDMAP v1\nstep x\n",  # corrupt
        "dangling",  # parses, but an edge has lost its cells
    ],
)
def test_query_on_bad_snapshot_is_a_clean_error(tmp_path, capsys, content):
    snap = tmp_path / "s.snap"
    if content == "dir":
        snap.mkdir()
    elif content == "dangling":
        text = render_snapshot(replay(worked_example_transactions()).state)
        kept = [l for l in text.splitlines(True) if not l.startswith("cell ")]
        snap.write_text("".join(kept), encoding="utf-8")
    elif content is not None:
        snap.write_bytes(content)
    assert run_cli("query", "--snapshot", snap, "weight", "A", "B") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_query_on_a_crlf_snapshot_names_the_line_endings(tmp_path, capsys):
    # The header is there, but ends in "\r": the error says why it is not read.
    text = render_snapshot(replay(worked_example_transactions()).state)
    snap = tmp_path / "s.snap"
    snap.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
    assert run_cli("query", "--snapshot", snap, "weight", "A", "B") == 1
    expected = "line 1: the file has CRLF line endings; snapshots use LF"
    assert capsys.readouterr().err == f"error: {snap}: {expected}\n"


def test_query_on_a_snapshot_with_a_byte_order_mark_names_it(tmp_path, capsys):
    # Some editors save UTF-8 with a leading byte-order mark; it hides the header.
    text = render_snapshot(replay(worked_example_transactions()).state)
    snap = tmp_path / "s.snap"
    snap.write_bytes(text.encode("utf-8-sig"))
    assert run_cli("query", "--snapshot", snap, "weight", "A", "B") == 1
    expected = "line 1: the file starts with a UTF-8 byte-order mark; snapshots have none"
    assert capsys.readouterr().err == f"error: {snap}: {expected}\n"


@pytest.mark.parametrize(
    "argv, code",
    [
        (["run", "--eta", "0"], 2),
        (["trace", "--eta", "0", "A", "B"], 2),
        (["run", "--trace", "A", "A"], 2),
        (["trace", "A", "A"], 2),
        (["run", "--horizon", "0", "--trace", "A", "B"], 2),
        (["trace", "-k", "0", "A", "B"], 2),
        (["apriori", "--minsup", "0"], 2),
        (["query", "--snapshot", "{snap}", "strongest", "--top", "0"], 2),
        (["run", "--snapshot", "{unwritable}"], 1),
        (["run", "--events", "{unwritable}"], 1),
        (["apriori", "--minsup-frac", "nan"], 2),
        (["apriori", "--minsup-frac", "inf"], 2),
        (["apriori", "--minsup-frac", "0"], 2),
        (["apriori", "--minsup-frac", "1.5"], 2),
        (["apriori", "--minsup", "2", "--minconf", "2"], 2),
        (["apriori", "--minsup", "2", "--minconf", "nan"], 2),
        (["apriori", "--minsup", "2", "--minconf", "-1"], 2),
        (["trace", "--register-after", "-5", "A", "B"], 2),
        (["query", "--snapshot", "{snap}", "skeleton", "--theta-w", "1.5"], 2),
        (["query", "--snapshot", "{snap}", "rules", "--theta-a", "nan"], 2),
        (["query", "--snapshot", "{snap}", "strongest", "--theta-w", "-0.1"], 2),
        (["query", "--snapshot", "{snap}", "patterns", "extra"], 2),
        (["query", "--snapshot", "{snap}", "skeleton", "foo"], 2),
        (["query", "--snapshot", "{snap}", "ltm", "open", "extra"], 2),
        (["run", "--horizon", "0"], 2),
        (["query", "--snapshot", "{snap}"], 2),
        (["query", "--snapshot", "{snap}", "weight", "A", "A"], 2),
        (["query", "--snapshot", "{snap}", "activation"], 2),
        (["query", "--snapshot", "{snap}", "skeleton", "--top", "1"], 2),
        (["query", "--snapshot", "{snap}", "skeleton", "--theta-w"], 2),
        (["apriori"], 2),
        (["run", "--trace", "x\ny", "A"], 2),
        (["trace", " ", "A"], 2),
        (["query", "--snapshot", "{snap}", "weight", "", "A"], 2),
        (["query", "--snapshot", "{snap}", "activation", " "], 2),
        (["query", "--snapshot", "{snap}", "weight", "x\ny", "A"], 2),
        (["apriori", "--minsup", "1", "--minsup-frac", "0.5"], 2),
    ],
)
def test_bad_arguments_are_a_clean_error(tmp_path, stream_file, capsys, argv, code):
    snap = tmp_path / "s.snap"
    snap.write_text(render_snapshot(replay(worked_example_transactions()).state))
    unwritable = tmp_path / "no-such-dir" / "out"
    paths = {"{snap}": str(snap), "{unwritable}": str(unwritable)}
    argv = [paths.get(a, a) for a in argv]
    if argv[0] != "query":
        argv += ["--input", str(stream_file)]
    assert run_cli(*argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.splitlines()) == 1
    assert err.startswith("usage error: " if code == 2 else f"error: {unwritable}: ")


@pytest.mark.parametrize("argv", [["--help"], [], ["nope"], ["run", "--bogus"]])
def test_top_level_output_is_that_of_the_full_parser(argv, capsys):
    # main builds only the invoked subcommand's arguments; help, a missing or
    # unknown command and a stray argument print what every parser built does.
    def outcome(call):
        with pytest.raises(SystemExit) as exc:
            call()
        return exc.value.code, capsys.readouterr()

    assert outcome(lambda: main(argv)) == outcome(lambda: build_parser().parse_args(argv))


def test_only_the_invoked_subcommand_gets_its_arguments(tmp_path, monkeypatch, capsys):
    snap = tmp_path / "s.snap"
    snap.write_text(render_snapshot(replay(worked_example_transactions()).state))

    def fail(*args, **kwargs):
        raise AssertionError("built the arguments of a subcommand that was not invoked")

    # run, trace and apriori add these; query adds neither.
    monkeypatch.setattr(cli, "_add_param_flags", fail)
    monkeypatch.setattr(cli, "_add_input_flags", fail)
    assert run_cli("query", "--snapshot", snap, "weight", "A", "C") == 0
    expected = run_static_query(load_snapshot(snap), ["weight", "A", "C"])
    assert capsys.readouterr().out == expected + "\n"


def test_event_and_trace_lines_quote_labels_as_a_snapshot_does(tmp_path, capsys):
    # Unquoted, "a b" and "b c" would read as the three labels a, b and c.
    labels = ["a b", "b c", "x|y"]
    stream = tmp_path / "stream.txt"
    stream.write_text("".join(f"2004-03-01;{ref};{name}\n" for ref in (1, 2) for name in labels))
    events = tmp_path / "events.log"
    argv = ["run", "--input", stream, "--events", events, "--snapshot", tmp_path / "s.snap"]
    argv += ["--theta-w", "0.3", "--promote-after", "1", "--trace", "b c", "a b"]
    assert run_cli(*argv) == 0
    lines = events.read_text().splitlines()
    assert lines == [
        '1 cell-created "a b"',
        '1 cell-created "b c"',
        "1 cell-created x|y",
        '1 edge-created "a b" "b c"',
        '1 edge-created "a b" x|y',
        '1 edge-created "b c" x|y',
        '1 pattern-promoted "a b|b c|x\\\\|y"',
    ]
    assert _parse_signature(_tokenize(lines[-1], 1)[2]) == tuple(labels)
    assert [_tokenize(line, 1)[2:4] for line in lines[3:6]] == [
        list(pair) for pair in combinations(labels, 2)
    ]
    trace = capsys.readouterr().out.splitlines()
    assert [line.rsplit(" ", 1)[0] for line in trace] == [
        f'{step} trace "a b" "b c"' for step in (1, 2)
    ]
    # The reference engine writes the same lines.
    reference = ReferenceEngine(EngineParams(theta_w=0.3, promote_after=1))
    for _ in range(2):
        reference.ingest(txn(labels))
    assert reference.event_lines == lines
