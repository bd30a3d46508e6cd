#!/usr/bin/env python3
"""Print five digests, of the parsed germs, of the pipeline's condition
rows, of the truncated solvers' residual rows, of the answers on the
benchmark's presentations and of the targets' automorphism kernels, for
identity checks of the parser, the series layer, the pipeline, the oracle
and the solves.

Usage:
    python3 scripts/germ_digest.py

Parses every corpus entry and the perfbench presentations of seeds 1-8 of
every workload, each at orders 12 and 24, on the ``src/`` tree next to
this script.  The first digest is the sha256 of the frames and of the
(exponent, numerators, denominator) terms of Q, rho, the normal-coordinate
change g and each map component, in coefficient insertion order, so a
change that moves the order in which terms are stored (and with it the
order of elimination rows) changes it too.  A frame is hashed by its
meaning (variables, order, weights and {variable: cap}), not by how it
stores its caps.

The second digest is the sha256 of the pole, jet and residual rows of
``pipeline.condition_system`` at each problem's work order, for the
corpus entries with a map that are not degenerate and the seed 1-8
presentations of ``rigidity-spherical``.  Each row is hashed with its
keys and tags sorted, so a change that only reorders rows or tags keeps
it.

The third digest is the sha256 of the sorted rows of
``oracle.deformation_residual`` at order 9 and of
``oracle.automorphism_residual`` of the target at order 7, for the same
corpus entries and the seed 1-8 presentations of
``oracle-nonspherical``.

The fourth digest is the sha256 of the exit code and the rendered report
of ``cli.answer`` on the seed 1-8 presentation of every workload slot,
each parsed at order 24 and answered by its workload's command, so it
pins the answers on the benchmark's own problems.

The fifth digest is the sha256 of the dims and the canonical kernel of
``oracle.infinitesimal_automorphisms(target, 9, proj_order=4)`` for the
target of every corpus entry and of every seed 1-8 presentation, each
parsed at order 12.  The reports show only the dimension of this kernel;
the trivial deformations of ``rigidity`` are composed from it.

Run it on two checkouts and compare the lines.  The perfbench modules are
imported, never changed.
"""

import hashlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from crrigid import oracle, report  # noqa: E402
from crrigid.cli import answer  # noqa: E402
from crrigid.corpus import CORPUS_IDS, EXPECTATIONS, corpus_text  # noqa: E402
from crrigid.parser import parse_problem  # noqa: E402
from crrigid.pipeline import condition_system  # noqa: E402
from presentations import draw  # noqa: E402
from run import WORKLOADS  # noqa: E402

SEEDS = range(1, 9)
ORDERS = (12, 24)
RESIDUAL_ORDERS = (9, 7)    # deformation, automorphism
AUT_ORDERS = (9, 4)         # truncation, projection of the kernel


def frame_meaning(frm) -> tuple:
    """(vars, order, weights, {variable: cap}) of a frame, whose caps are
    (index, cap) pairs."""
    return (frm.vars, frm.order, frm.weights,
            sorted((frm.vars[i], c) for i, c in frm.caps))


def terms(s) -> str:
    if s is None:
        return "None"
    return repr((frame_meaning(s.frame),
                 [(e, c.na, c.nb, c.nc, c.ne, c.nd)
                  for e, c in s.coeffs.items()]))


def rows_text(rows) -> str:
    """Rows {key: {tag: Scalar}} with keys and tags sorted."""
    return repr(sorted(
        (key, sorted((tag, (c.na, c.nb, c.nc, c.ne, c.nd))
                     for tag, c in row.items()))
        for key, row in rows.items()))


def conditions_text(text: str) -> str:
    """The work order and the sorted rows of a problem's condition system."""
    spec = parse_problem(text, order=ORDERS[-1])
    work_order = spec.orders()[0]
    if work_order + 5 > ORDERS[-1]:
        spec = parse_problem(text, order=work_order + 5)
    system = condition_system(spec.H, spec.source, spec.target, work_order)
    return "|".join([str(system.work_order), rows_text(system.rows_pole),
                     rows_text(system.rows_jet),
                     rows_text(system.residuals)])


def residuals_text(text: str) -> str:
    """The sorted rows of a problem's deformation residual and of its
    target's automorphism residual."""
    spec = parse_problem(text, order=ORDERS[0])
    kdef, kaut = RESIDUAL_ORDERS
    deform = oracle.deformation_residual(spec.H, spec.source, spec.target,
                                         kdef)
    aut = oracle.automorphism_residual(spec.target, kaut)
    return "|".join(rows_text(r.coeffs) for r in (deform, aut))


def main() -> int:
    drawn = [(workload, draw(name, seed, k, entry, corpus_text(entry),
                             plan).text)
             for name, workload in sorted(WORKLOADS.items())
             for seed in SEEDS
             for k, (entry, plan) in enumerate(workload.slots)]
    problems = [corpus_text(e) for e in CORPUS_IDS] + [t for _, t in drawn]
    digest = hashlib.sha256()
    for order in ORDERS:
        for text in problems:
            spec = parse_problem(text, order=order)
            germs = [spec.source.Q, spec.target.rho, spec.change]
            germs += spec.H.components if spec.H is not None else []
            digest.update("|".join(map(terms, germs)).encode())
    print(f"{len(problems)} problems at orders {ORDERS}: "
          f"{digest.hexdigest()}")
    solved = [corpus_text(e) for e, exp in EXPECTATIONS.items()
              if not (exp.aut_only or exp.degenerate)]
    for label, workload, rows in (
            ("condition systems", "rigidity-spherical", conditions_text),
            (f"residual pairs at orders {RESIDUAL_ORDERS}",
             "oracle-nonspherical", residuals_text)):
        texts = solved + [
            draw(workload, seed, k, entry, corpus_text(entry), plan).text
            for seed in SEEDS
            for k, (entry, plan) in enumerate(WORKLOADS[workload].slots)]
        digest = hashlib.sha256()
        for text in texts:
            digest.update(rows(text).encode())
        print(f"{len(texts)} {label}: {digest.hexdigest()}")
    digest = hashlib.sha256()
    for workload, text in drawn:
        spec = parse_problem(text, order=ORDERS[-1])
        doc, code = answer(workload.command, spec, spec.orders(),
                           oracle="--oracle" in workload.options)
        digest.update(f"{code}|{report.render(doc)}".encode())
    print(f"{len(drawn)} benchmark answers: {digest.hexdigest()}")
    digest = hashlib.sha256()
    for text in problems:
        aut = oracle.infinitesimal_automorphisms(
            parse_problem(text, order=ORDERS[0]).target, AUT_ORDERS[0],
            proj_order=AUT_ORDERS[1])
        digest.update(repr((sorted(aut.dims.items()), rows_text(
            dict(enumerate(aut.kernel_real))))).encode())
    print(f"{len(problems)} automorphism kernels at orders {AUT_ORDERS}: "
          f"{digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
