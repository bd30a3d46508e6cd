#!/usr/bin/env python3
"""Print one keyed line per identity check of crrigid, on the ``src/``
tree next to this script.

Usage:
    python3 scripts/digest.py > digest.txt
    python3 scripts/digest.py --against digest.txt

Each line is a name, two spaces and what the check gives: the exit code
and stdout sha256 of each command of :func:`commands`, run in a fresh
process, then five sha256 lines computed here over the corpus and
perfbench's seed 1-8 presentations (README.md says what each covers).
With ``--against FILE`` it prints only the lines that differ from the
saved digest FILE, then the saved lines it no longer prints, marked "not
run", and exits 1 if it printed any.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from itertools import chain

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, os.path.join(ROOT, "perfbench")]

from crrigid import oracle, report  # noqa: E402
from crrigid.cli import answer, load_text  # noqa: E402
from crrigid.corpus import CORPUS_IDS, EXPECTATIONS, corpus_text  # noqa: E402
from crrigid.parser import parse_problem  # noqa: E402
from crrigid.pipeline import condition_system  # noqa: E402
from presentations import draw  # noqa: E402
from run import WORKLOADS  # noqa: E402

#: Problems whose sources, unlike the corpus', are not in normal
#: coordinates, so that the gauge steps and the map rewritten as
#: H(z, w + i g) run too; written to files of these names in a tmpdir.
GAUGED = {
    "gauge-quadratic.crr": "vars z w;\n"
    "source: imag(w) = z*conj(z) + (z^2 + w^2)*conj(z^2 + w^2);\n"
    "target: hyperquadric +1;\nmap: (z, z^2 + w^2, w);\n",
    "gauge-linear.crr": "vars z w;\n"
    "source: imag(w) + real(w)/3 = z*conj(z) + (z*conj(z))^2;\n"
    "target: hyperquadric +1;\nmap: (z, z^2, (1 + i/3)*w);\n",
}
SEEDS = range(1, 9)
ORDERS = (12, 24)
RESIDUAL_ORDERS = (9, 7)    # deformation, automorphism
AUT_ORDERS = (9, 4)         # truncation, projection of the kernel


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
        for order in ("9", "13"):    # some stabilize on a wrong dimension
            yield ["deform", entry, "--order", order]
        yield ["deform", entry, "--oracle", "--order", "14"]
    yield ["automorphisms", "target-6-4", "--aut-order", "11"]
    yield ["automorphisms", "target-6-4"]
    yield ["selftest"]
    for name in GAUGED:
        for cmd in (["check"], ["normal-coords"], ["deform", "--with-oracle"],
                    ["rigidity"], ["genericity"]):
            yield cmd + [name]
    yield ["reproduce", "all"]


def cli_lines():
    env = dict(os.environ, PYTHONPATH=SRC)
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in GAUGED.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        for cmd in commands():
            done = subprocess.run(
                [sys.executable, "-m", "crrigid.cli"] + cmd, env=env,
                cwd=tmp, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
            digest = hashlib.sha256(done.stdout).hexdigest()
            yield f"crrigid {' '.join(cmd)}  exit {done.returncode}  {digest}"


def terms(s) -> str:
    """A series' frame by meaning, its (index, cap) caps read as
    (variable, cap), and its terms in insertion order."""
    if s is None:
        return "None"
    frm = s.frame
    return repr(((frm.vars, frm.order, frm.weights,
                  sorted((frm.vars[i], c) for i, c in frm.caps)),
                 [(e, c.na, c.nb, c.nc, c.ne, c.nd)
                  for e, c in s.coeffs.items()]))


def germs_text(text: str, order: int) -> str:
    """The terms of a problem's germs, parsed at ``order``."""
    spec = parse_problem(text, order=order)
    germs = [spec.source.Q, spec.target.rho, spec.change]
    germs += spec.H.components if spec.H is not None else []
    return "|".join(map(terms, germs))


def rows_text(rows) -> str:
    """Rows {key: {tag: Scalar}} with keys and tags sorted."""
    return repr(sorted(
        (key, sorted((tag, (c.na, c.nb, c.nc, c.ne, c.nd))
                     for tag, c in row.items()))
        for key, row in rows.items()))


def conditions_text(text: str) -> str:
    """The work order and the sorted rows of a problem's condition system."""
    spec, (work_order, _, _) = load_text(text)
    system = condition_system(spec.H, spec.source, spec.target, work_order)
    return "|".join([str(system.work_order), rows_text(system.rows_pole),
                     rows_text(system.rows_jet),
                     rows_text(system.residuals)])


def residuals_text(text: str) -> str:
    """The sorted rows of a problem's deformation residual and of its
    target's automorphism residual."""
    spec = parse_problem(text, order=ORDERS[0])
    kdef, kaut = RESIDUAL_ORDERS
    return "|".join(rows_text(r.coeffs) for r in (
        oracle.deformation_residual(spec.H, spec.source, spec.target, kdef),
        oracle.automorphism_residual(spec.target, kaut)))


def answer_text(workload, text: str) -> str:
    """The exit code and report of the workload's command on a problem."""
    spec, orders = load_text(text)
    doc, code = answer(workload.command, spec, orders,
                       oracle="--oracle" in workload.options)
    return f"{code}|{report.render(doc)}"


def automorphisms_text(text: str) -> str:
    """The dims and canonical kernel of the target's automorphisms."""
    aut = oracle.infinitesimal_automorphisms(
        parse_problem(text, order=ORDERS[0]).target, AUT_ORDERS[0],
        proj_order=AUT_ORDERS[1])
    return repr((sorted(aut.dims.items()),
                 rows_text(dict(enumerate(aut.kernel_real)))))


def hashed(label: str, texts) -> str:
    """The line of ``label`` and the sha256 of the texts."""
    digest = hashlib.sha256()
    for text in texts:
        digest.update(text.encode())
    return f"{label}  {digest.hexdigest()}"


def germ_lines():
    drawn = [(workload, draw(name, seed, k, entry, corpus_text(entry),
                             plan).text)
             for name, workload in sorted(WORKLOADS.items())
             for seed in SEEDS
             for k, (entry, plan) in enumerate(workload.slots)]
    problems = [corpus_text(e) for e in CORPUS_IDS] + [t for _, t in drawn]
    solved = [corpus_text(e) for e, exp in EXPECTATIONS.items()
              if not (exp.aut_only or exp.degenerate)]

    def drawn_for(name):
        return solved + [t for w, t in drawn if w is WORKLOADS[name]]

    yield hashed(f"{len(problems)} problems at orders {ORDERS}",
                 (germs_text(t, order) for order in ORDERS for t in problems))
    texts = drawn_for("rigidity-spherical")
    yield hashed(f"{len(texts)} condition systems",
                 map(conditions_text, texts))
    texts = drawn_for("oracle-nonspherical")
    yield hashed(f"{len(texts)} residual pairs at orders {RESIDUAL_ORDERS}",
                 map(residuals_text, texts))
    yield hashed(f"{len(drawn)} benchmark answers",
                 (answer_text(w, t) for w, t in drawn))
    yield hashed(f"{len(problems)} automorphism kernels at orders "
                 f"{AUT_ORDERS}", map(automorphisms_text, problems))


def against(lines, saved: str):
    """The lines that differ from the saved digest text, each keyed by
    its name, then the saved lines of names no longer printed."""
    keyed = {ln.split("  ")[0]: ln for ln in saved.splitlines() if ln}
    for line in lines:
        if keyed.pop(line.split("  ")[0], None) != line:
            yield line
    for line in keyed.values():
        yield f"not run: {line}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--against", metavar="FILE",
                    help="saved digest; print only the lines that differ")
    args = ap.parse_args(argv)
    lines = chain(cli_lines(), germ_lines())
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            lines = against(lines, fh.read())
    printed = 0
    for printed, line in enumerate(lines, 1):
        print(line, flush=True)
    return 1 if printed and args.against else 0


if __name__ == "__main__":
    sys.exit(main())
