#!/usr/bin/env python3
"""Run the full worked-example corpus and print a result table.

Usage:
    python3 scripts/run_examples.py [--with-oracle] [entry ...]

Without arguments every corpus entry is processed: embeddings are
validated, the deformation space is solved by the jet-parametrization
route and the rigidity verdict is reported.  With ``--with-oracle`` the
brute-truncation solver runs too, and its dimension and whether its
kernel span agrees with the pipeline's are printed.  Entries without a
map only get their automorphism space computed.
"""

import argparse
import sys
import time

from crrigid.corpus import EXPECTATIONS, load_corpus
from crrigid.linalg import same_span
from crrigid.oracle import direct_solve, infinitesimal_automorphisms
from crrigid.pipeline import DegenerateMapError, solve_deformation
from crrigid.spaces import decide_rigidity, validate_embedding


def run_entry(entry, with_oracle):
    exp = EXPECTATIONS[entry]
    spec = load_corpus(entry, order=max(exp.work_order, exp.oracle_order) + 7)
    t0 = time.time()
    if exp.aut_only:
        aut = infinitesimal_automorphisms(spec.target, keq=exp.aut_keq)
        return (entry, f"aut dim {aut.dim}",
                "stable" if aut.stabilized else "UNSTABLE",
                f"{time.time() - t0:.1f}s")
    if exp.degenerate:
        try:
            solve_deformation(spec.H, spec.source, spec.target, work_order=10)
            return (entry, "no degeneracy error", "UNEXPECTED", "-")
        except DegenerateMapError as exc:
            return (entry, f"degenerate ({exc})", "expected",
                    f"{time.time() - t0:.1f}s")
    validate_embedding(spec.H, spec.source, spec.target)
    sol = solve_deformation(spec.H, spec.source, spec.target,
                            work_order=exp.work_order)
    rep = decide_rigidity(spec.H, spec.source, spec.target, sol,
                          aut_keq=exp.aut_keq)
    dim = f"dim {rep.dim}"
    if with_oracle:
        orc = direct_solve(spec.H, spec.source, spec.target,
                           keq=exp.oracle_order)
        agree = same_span(sol.kernel_real, orc.kernel_real,
                          2 * len(sol.jet_keys))
        dim += f", oracle {orc.dim} ({'same' if agree else 'DIFFERENT'} span)"
    return (entry, dim, rep.verdict, f"{time.time() - t0:.1f}s")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("entries", nargs="*", default=None)
    ap.add_argument("--with-oracle", action="store_true",
                    help="also run the brute-truncation cross-check")
    args = ap.parse_args()
    entries = args.entries or list(EXPECTATIONS)
    rows = []
    for entry in entries:
        if entry not in EXPECTATIONS:
            print(f"unknown corpus entry {entry!r}", file=sys.stderr)
            return 2
        print(f"running {entry} ...", file=sys.stderr)
        rows.append(run_entry(entry, args.with_oracle))
    width = max(len(r[0]) for r in rows)
    for r in rows:
        print(f"{r[0]:<{width}}  {r[1]:<12}  {r[2]:<55}  {r[3]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
