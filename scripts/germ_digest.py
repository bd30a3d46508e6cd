#!/usr/bin/env python3
"""Print one digest of the parsed germs, for identity checks of the parser
and the series layer.

Usage:
    python3 scripts/germ_digest.py

Parses every corpus entry and the perfbench presentations of seeds 1-8 of
every workload, each at orders 12 and 24, on the ``src/`` tree next to
this script.  The digest is the sha256 of the frames and of the
(exponent, numerators, denominator) terms of Q, rho, the normal-coordinate
change g and each map component, in coefficient insertion order, so a
change that moves the order in which terms are stored (and with it the
order of elimination rows) changes it too.  A frame is hashed by its
meaning (variables, order, weights and {variable: cap}), not by how it
stores its caps.  Run it on two checkouts and compare the lines.  The
perfbench modules are imported, never changed.
"""

import hashlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from crrigid.corpus import CORPUS_IDS, corpus_text  # noqa: E402
from crrigid.parser import parse_problem  # noqa: E402
from presentations import draw  # noqa: E402
from run import WORKLOADS  # noqa: E402

SEEDS = range(1, 9)
ORDERS = (12, 24)


def frame_meaning(frm) -> tuple:
    """(vars, order, weights, {variable: cap}) of a frame whose caps are
    (index, cap) pairs, or, in older checkouts, one cap per variable with
    -1 for none."""
    pairs = frm.caps if all(isinstance(c, tuple) for c in frm.caps) \
        else [(i, c) for i, c in enumerate(frm.caps) if c != -1]
    return (frm.vars, frm.order, frm.weights,
            sorted((frm.vars[i], c) for i, c in pairs))


def terms(s) -> str:
    if s is None:
        return "None"
    return repr((frame_meaning(s.frame),
                 [(e, c.na, c.nb, c.nc, c.ne, c.nd)
                  for e, c in s.coeffs.items()]))


def main() -> int:
    texts = [corpus_text(e) for e in CORPUS_IDS]
    for name, workload in sorted(WORKLOADS.items()):
        for seed in SEEDS:
            for k, (entry, plan) in enumerate(workload.slots):
                texts.append(draw(name, seed, k, entry, corpus_text(entry),
                                  plan).text)
    digest = hashlib.sha256()
    for order in ORDERS:
        for text in texts:
            spec = parse_problem(text, order=order)
            germs = [spec.source.Q, spec.target.rho, spec.change]
            germs += spec.H.components if spec.H is not None else []
            digest.update("|".join(map(terms, germs)).encode())
    print(f"{len(texts)} problems at orders {ORDERS}: {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
