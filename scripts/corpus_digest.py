#!/usr/bin/env python3
"""Print one digest line per corpus run, for byte-identity checks.

Usage:
    python3 scripts/corpus_digest.py > digest.txt

Runs ``check`` and ``normal-coords`` on every corpus entry, ``deform``,
``deform --oracle``, ``deform --with-oracle``, ``rigidity`` and
``genericity`` on every corpus entry that has a map, ``automorphisms
target-6-4`` with ``--aut-order 11`` and without a flag, and
``selftest``, each in a fresh process on the ``src/`` tree next to this
script.  Each line holds the command, its exit code and the sha256 of
its stdout.  Run it on two checkouts and diff the outputs: a change that
keeps every report and exit code prints the same lines.
"""

import hashlib
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
sys.path.insert(0, SRC)

from crrigid.corpus import EXPECTATIONS  # noqa: E402


def commands():
    for entry, exp in EXPECTATIONS.items():
        yield ["check", entry]
        yield ["normal-coords", entry]
        if exp.aut_only:
            continue
        for cmd in (["deform"], ["deform", "--oracle"],
                    ["deform", "--with-oracle"], ["rigidity"],
                    ["genericity"]):
            yield cmd + [entry]
    yield ["automorphisms", "target-6-4", "--aut-order", "11"]
    yield ["automorphisms", "target-6-4"]
    yield ["selftest"]


def main() -> int:
    env = dict(os.environ, PYTHONPATH=SRC)
    for cmd in commands():
        done = subprocess.run([sys.executable, "-m", "crrigid.cli"] + cmd,
                              env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL)
        digest = hashlib.sha256(done.stdout).hexdigest()
        print(f"crrigid {' '.join(cmd)}  exit {done.returncode}  {digest}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
