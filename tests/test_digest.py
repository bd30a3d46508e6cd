"""The identity gate, scripts/digest.py, runs every command of the
command line and reports every line that differs from a saved digest.

The script is imported, never run here: a full digest takes about half a
minute.
"""

import importlib.util
import os
import sys

import pytest

from crrigid import cli

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "scripts", "digest.py")


@pytest.fixture(scope="module")
def digest():
    spec = importlib.util.spec_from_file_location("digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    path = list(sys.path)
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.path[:] = path    # digest.py puts src/ and perfbench/ on the path


def test_the_gate_runs_every_command(digest):
    assert {cmd[0] for cmd in digest.commands()} \
        == {k.split()[0] for k in cli._READS}


def test_against_prints_each_changed_or_missing_line(digest):
    saved = "crrigid a  exit 0  11\ncrrigid b  exit 0  22\n" \
        "3 germs  33\n4 germs  44\n"
    lines = ["crrigid a  exit 0  11", "crrigid b  exit 1  22",
             "3 germs  30", "5 germs  55"]
    assert list(digest.against(lines, saved)) == [
        "crrigid b  exit 1  22", "3 germs  30", "5 germs  55",
        "not run: 4 germs  44"]
    assert list(digest.against(lines, "\n".join(lines) + "\n")) == []
