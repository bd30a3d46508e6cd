#!/usr/bin/env python3
"""Print one digest line per corpus run, for byte-identity checks.

Usage:
    python3 scripts/corpus_digest.py > digest.txt
    python3 scripts/corpus_digest.py --against digest.txt

Runs ``check`` and ``normal-coords`` on every corpus entry, ``deform``,
``deform --oracle``, ``deform --with-oracle``, ``rigidity``,
``rigidity --oracle`` and ``genericity`` on every corpus entry that has a
map, ``deform`` at ``--order`` 9 and 13 (orders where the pipeline
stabilizes on a wrong dimension for some entries) and
``deform --oracle --order 14`` (where the oracle does) on every such entry
that is not degenerate, ``automorphisms target-6-4`` with ``--aut-order 11``
and without a flag, ``selftest``, and ``check``, ``normal-coords``,
``deform --with-oracle``, ``rigidity`` and ``genericity`` on the two
problems of :data:`GAUGED`, each in a fresh process on the ``src/`` tree
next to this script.  Each line holds the command, its exit code and the
sha256 of its stdout.  Run it on two checkouts and diff the outputs: a
change that keeps every report and exit code prints the same lines.  With
``--against FILE`` it prints only the lines that differ from the saved
digest FILE (and, marked "not run", the saved lines of commands it no
longer runs), and exits 1 if any line differs.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
sys.path.insert(0, SRC)

from crrigid.corpus import EXPECTATIONS  # noqa: E402

#: Problems whose sources are not in normal coordinates (every corpus
#: source is), so that the gauge steps of the normalization, the map
#: rewritten as H(z, w + i g) and the reports of g run here too; they are
#: written to files of these names in a temporary directory.
GAUGED = {
    "gauge-quadratic.crr": "vars z w;\n"
    "source: imag(w) = z*conj(z) + (z^2 + w^2)*conj(z^2 + w^2);\n"
    "target: hyperquadric +1;\nmap: (z, z^2 + w^2, w);\n",
    "gauge-linear.crr": "vars z w;\n"
    "source: imag(w) + real(w)/3 = z*conj(z) + (z*conj(z))^2;\n"
    "target: hyperquadric +1;\nmap: (z, z^2, (1 + i/3)*w);\n",
}


def commands():
    for entry, exp in EXPECTATIONS.items():
        yield ["check", entry]
        yield ["normal-coords", entry]
        if exp.aut_only:
            continue
        for cmd in (["deform"], ["deform", "--oracle"],
                    ["deform", "--with-oracle"], ["rigidity"],
                    ["rigidity", "--oracle"], ["genericity"]):
            yield cmd + [entry]
        if exp.degenerate:
            continue
        for order in ("9", "13"):
            yield ["deform", entry, "--order", order]
        yield ["deform", entry, "--oracle", "--order", "14"]
    yield ["automorphisms", "target-6-4", "--aut-order", "11"]
    yield ["automorphisms", "target-6-4"]
    yield ["selftest"]
    for name in GAUGED:
        for cmd in (["check"], ["normal-coords"], ["deform", "--with-oracle"],
                    ["rigidity"], ["genericity"]):
            yield cmd + [name]


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
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in GAUGED.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        for cmd in commands():
            done = subprocess.run(
                [sys.executable, "-m", "crrigid.cli"] + cmd, env=env,
                cwd=tmp, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
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
