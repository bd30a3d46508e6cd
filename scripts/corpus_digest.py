#!/usr/bin/env python3
"""Print one digest line per corpus run, for byte-identity checks.

Usage:
    python3 scripts/corpus_digest.py > digest.txt
    python3 scripts/corpus_digest.py --against digest.txt

Runs ``check`` and ``normal-coords`` on every corpus entry, ``deform``,
``deform --oracle``, ``deform --with-oracle``, ``rigidity`` and
``genericity`` on every corpus entry that has a map, ``deform`` at
``--order`` 9 and 13 (orders where the pipeline stabilizes on a wrong
dimension for some entries) on every such entry that is not degenerate,
``automorphisms target-6-4`` with ``--aut-order 11`` and without a flag,
and ``selftest``, each in a fresh process on the ``src/`` tree next to this
script.  Each line holds the command, its exit code and the sha256 of
its stdout.  Run it on two checkouts and diff the outputs: a change that
keeps every report and exit code prints the same lines.  With
``--against FILE`` it prints only the lines that differ from the saved
digest FILE (and, marked "not run", the saved lines of commands it no
longer runs), and exits 1 if any line differs.
"""

import argparse
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
        if exp.degenerate:
            continue
        for order in ("9", "13"):
            yield ["deform", entry, "--order", order]
    yield ["automorphisms", "target-6-4", "--aut-order", "11"]
    yield ["automorphisms", "target-6-4"]
    yield ["selftest"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--against", metavar="FILE",
                    help="saved digest; print only the lines that differ")
    args = ap.parse_args(argv)
    saved = None
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            saved = {line.split("  ")[0]: line
                     for line in fh.read().splitlines() if line}
    env = dict(os.environ, PYTHONPATH=SRC)
    differ = False
    for cmd in commands():
        done = subprocess.run([sys.executable, "-m", "crrigid.cli"] + cmd,
                              env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL)
        digest = hashlib.sha256(done.stdout).hexdigest()
        name = f"crrigid {' '.join(cmd)}"
        line = f"{name}  exit {done.returncode}  {digest}"
        if saved is None:
            print(line, flush=True)
        elif saved.pop(name, None) != line:
            differ = True
            print(line, flush=True)
    for line in (saved or {}).values():
        differ = True
        print(f"not run: {line}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
