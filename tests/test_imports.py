"""What the package loads: each subcommand imports only the modules it runs,
and the package root loads a public name's module only when it is used."""

import importlib
import os
import subprocess
import sys

import pytest

import mindstream
from mindstream.cli import main

from helpers import worked_example_stream_text

SRC = os.path.dirname(os.path.dirname(mindstream.__file__))

# No subcommand loads these: records are tuples, and `MindMap.copy` imports
# `copy` only when it is called. `dataclasses` alone took ~40% of a cold start.
SLOW_IMPORTS = {"dataclasses", "inspect", "copy"}

PUBLIC = [
    "Engine", "EngineParams", "EngineState", "MindMap", "Skeleton",
    "StepEvents", "Transaction", "activate_cell", "distinct_items", "extract_skeleton", "hebbian_update", "ingest_transaction",
    "initial_weight", "load_snapshot", "parse_snapshot", "render_snapshot",
    "save_snapshot",
]

# Prints, as its last line, the modules that `import mindstream.cli` and one
# `main(argv)` added. Measured in the child, so that whatever the interpreter
# loads at startup (`site`, a `.pth` file) is not counted.
CHILD = """
import sys
before = set(sys.modules)
from mindstream.cli import main
code = main(sys.argv[1:])
print(" ".join(sorted(set(sys.modules) - before)))
sys.exit(code)
"""


def fresh(code, *argv):
    """Run `code` in a fresh interpreter; return its stdout's lines."""
    done = subprocess.run(
        [sys.executable, "-c", code, *map(str, argv)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC), timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, "")
    return done.stdout.splitlines()


def added_by(*argv):
    """The modules that `mindstream <argv>` loads."""
    return set(fresh(CHILD, *argv)[-1].split())


@pytest.fixture()
def stream_file(tmp_path):
    path = tmp_path / "stream.txt"
    path.write_text(worked_example_stream_text(), encoding="utf-8")
    return path


def test_query_loads_neither_the_engine_nor_the_parser(tmp_path, stream_file, capsys):
    snap = tmp_path / "out.snap"
    assert main(["run", "--input", str(stream_file), "--snapshot", str(snap)]) == 0
    added = added_by("query", "--snapshot", snap, "rules", "--theta-w", "0.68")
    assert "mindstream.queries" in added
    assert not added & {
        "mindstream.engine", "mindstream.dynamics", "mindstream.stream",
        "mindstream.apriori", "logging", "datetime", *SLOW_IMPORTS,
    }


def test_run_on_clean_input_loads_neither_apriori_nor_logging(tmp_path, stream_file):
    added = added_by("run", "--input", stream_file, "--snapshot", tmp_path / "s")
    assert {"mindstream.engine", "mindstream.stream"} <= added
    assert not added & {"mindstream.apriori", "logging", *SLOW_IMPORTS}


def test_trace_loads_neither_apriori_nor_dataclasses(stream_file):
    added = added_by("trace", "--input", stream_file, "B", "C", "-k", 2)
    assert {"mindstream.engine", "mindstream.stream"} <= added
    assert not added & {"mindstream.apriori", *SLOW_IMPORTS}


def test_apriori_loads_apriori(stream_file):
    added = added_by("apriori", "--input", stream_file, "--minsup", 2, "--minconf", 0.5)
    assert "mindstream.apriori" in added
    assert not added & SLOW_IMPORTS


@pytest.mark.parametrize("name", PUBLIC)
def test_public_name_is_its_home_module_object(name):
    namespace = {}
    exec(f"from mindstream import {name}", namespace)
    value = namespace[name]
    assert value.__module__.startswith("mindstream.")
    assert value is getattr(importlib.import_module(value.__module__), name)


def test_package_api():
    assert mindstream.__all__ == PUBLIC
    assert isinstance(mindstream.__version__, str)
    namespace = {}
    exec("from mindstream import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(PUBLIC)
    assert not hasattr(mindstream, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        mindstream.no_such_name


def test_package_root_loads_a_module_on_first_use():
    code = """
import sys
import mindstream
print(sorted(m for m in sys.modules if m.startswith("mindstream.")))
from mindstream import dynamics
print(dynamics.__name__, sorted(m for m in sys.modules if m.startswith("mindstream.")))
mindstream.Engine
print("mindstream.engine" in sys.modules)
"""
    assert fresh(code) == [
        "[]",
        "mindstream.dynamics ['mindstream.dynamics', 'mindstream.model']",
        "True",
    ]
