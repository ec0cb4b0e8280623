"""What a verification loads at start-up, pinned.

Each `hodgekp verify` is a fresh process, so every module its import
pulls in is paid before the first job.  These tests run a fresh
interpreter under `-S`, so that no site hook loads a module first, and
list the modules a run must not load, each with the reason it stays out.
"""

import os
import subprocess
import sys

import hodgekp

SRC = os.path.dirname(os.path.dirname(os.path.abspath(hodgekp.__file__)))

NOT_LOADED = {
    "dataclasses": "the records are plain `__slots__` classes (`algebra.Record`)",
    "inspect": "loaded by dataclasses alone, with ast, dis and tokenize",
    "argparse": "only the command line parses arguments: `cli._build_parser` imports it",
    "typing": "annotations stay strings (`from __future__ import annotations`), "
    "and the abstract types come from collections.abc",
    "signal": "only `operators._split_in_two` sends one, on its kill path, which imports it",
    "importlib.resources": "`cli.default_points` reads the package data through the module's loader",
    "pathlib": "loaded by importlib.resources",
    "zipfile": "loaded by importlib.resources",
}

VERIFY = """
import sys
sys.path.insert(0, sys.argv[1])
import hodgekp
from hodgekp import cli
points = cli.default_points()
assert len(points) == 5, points
for check, W in (("lemma-laplace", 3), ("conjugation", 2)):
    code, summary = cli.run_verification(cli.RunConfig([check], points, W))
    assert code == 0, summary
print(" ".join(sorted(m for m in sys.argv[2:] if m in sys.modules)))
"""


def _fresh(*args, **kwargs):
    return subprocess.run([sys.executable, "-S", *args], capture_output=True, text=True, timeout=120, **kwargs)


def test_a_verification_loads_none_of_the_start_up_costs():
    proc = _fresh("-c", VERIFY, SRC, *NOT_LOADED)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert loaded == [], {m: NOT_LOADED[m] for m in loaded}


def test_the_command_line_runs_in_a_fresh_interpreter():
    env = dict(os.environ, PYTHONPATH=SRC)
    listed = _fresh("-m", "hodgekp", "list-checks", env=env)
    assert listed.returncode == 0, listed.stderr
    assert "lemma-laplace" in listed.stdout
    bad = _fresh("-m", "hodgekp", "verify", "lemma-laplace", "--weight", "abc", env=env)
    assert bad.returncode == 2
    assert bad.stderr.startswith("error: ") and bad.stderr.count("\n") == 1, bad.stderr
