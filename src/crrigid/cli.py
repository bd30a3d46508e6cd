"""Command-line front end.

    crrigid <command> [options] <file | corpus-id>

Commands: check, normal-coords, deform, rigidity, genericity,
automorphisms, reproduce, selftest.  The JSON report goes to stdout, a
one-line human summary to stderr.  Exit codes: 0 success, 1 a solver
failed to stabilize or an expectation failed, 2 input error.  A flag
overrides the solver order a problem file sets with an ``option`` line.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Dict, List, Optional, Tuple

from crrigid import report as rp
from crrigid.corpus import CORPUS_IDS, EXPECTATIONS, corpus_text, load_corpus
from crrigid.oracle import direct_solve, infinitesimal_automorphisms
from crrigid.parser import MIN_ORDER, SOLVER_ORDERS, ParseError, \
    ProblemSpec, parse_problem
from crrigid.pipeline import DegenerateMapError, condition_system, \
    solve_deformation
from crrigid.spaces import decide_rigidity, genericity_certificate, \
    validate_embedding


def _load(problem: str, order: Optional[int] = None,
          aut_order: Optional[int] = None):
    """The problem and its solver orders (work, oracle, automorphism),
    with the germs expanded deep enough for each of them and for
    validation."""
    # a flag below MIN_ORDER is reported by spec.orders, after a parse at
    # an order every germ admits
    expand = max(SOLVER_ORDERS["work_order"] if order is None else order,
                 MIN_ORDER) + 7
    if problem in CORPUS_IDS:
        text = corpus_text(problem)
    else:
        try:
            with open(problem, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read {problem}: {exc}")
    spec = parse_problem(text, order=expand)
    wo, oo, ao = orders = spec.orders(order, aut_order)
    # the pipeline's stage-1 frame and the truncated solvers' K = keq + 1
    need = max(wo + 5, oo + 1, ao + 1)
    if need > expand:
        spec = parse_problem(text, order=need)
    return spec, orders


#: The options each command reads; the pipeline-only ones do not apply
#: when ``--oracle`` replaces the pipeline.  Any other option given is an
#: input error.
_READS = {
    "check": (),
    "normal-coords": (),
    "automorphisms": ("--aut-order",),
    "deform": ("--order", "--oracle", "--with-oracle"),
    "deform --oracle": ("--order", "--oracle"),
    "rigidity": ("--order", "--aut-order", "--oracle"),
    "rigidity --oracle": ("--order", "--aut-order", "--oracle"),
    "genericity": ("--order",),
    "reproduce": (),
    "selftest": (),
}


def _check_flags(args) -> None:
    route = f"{args.command} --oracle"
    if not (args.oracle and route in _READS):
        route = args.command
    for flag in sorted(set().union(*_READS.values())):
        given = getattr(args, flag[2:].replace("-", "_")) is not None
        if given and flag not in _READS[route]:
            raise ParseError(f"{flag} does not apply to {route}")


def answer(command: str, spec: ProblemSpec, orders: Tuple[int, int, int],
           oracle: bool = False, with_oracle: bool = False
           ) -> Tuple[Dict, int]:
    """The report of ``command`` on a parsed problem at its solver orders
    (work, oracle, automorphism), and the exit code: 1 when a solve it
    ran did not stabilize, else 0."""
    wo, oo, ao = orders
    if command == "normal-coords":
        return rp.normal_coords_doc(spec), 0
    if command == "automorphisms":
        aut = infinitesimal_automorphisms(spec.target, keq=ao)
        return rp.automorphisms_doc(aut), 0 if aut.stabilized else 1
    if spec.H is None:
        raise ParseError("this command needs a 'map:' statement")
    H, source, target = spec.H, spec.source, spec.target
    nd = validate_embedding(H, source, target)
    if command == "check":
        return rp.with_map_change(rp.check_doc(spec, nd), spec), 0
    if command == "genericity":
        system = condition_system(H, source, target, wo)
        return rp.genericity_doc(genericity_certificate(system)), 0
    cross = direct_solve(H, source, target, keq=oo) \
        if oracle or with_oracle else None
    sol = cross if oracle else \
        solve_deformation(H, source, target, work_order=wo)
    if command == "rigidity":
        rep = decide_rigidity(H, target, sol, aut_keq=ao)
        stable = sol.stabilized and (rep.trivial is None
                                     or rep.trivial.aut.stabilized)
        doc = rp.rigidity_doc(rep)
    else:
        doc = rp.deform_doc(sol, None if oracle else cross)
        stable = all(s.stabilized for s in (sol, cross) if s is not None)
    return rp.with_map_change(doc, spec), 0 if stable else 1


def run(args) -> int:
    t0 = time.time()
    _check_flags(args)
    if args.command == "selftest":
        if args.problem is not None:
            raise ParseError("selftest takes no problem argument")
        return _selftest(t0)
    if args.command == "reproduce":
        return _reproduce(args)
    spec, orders = _load(args.problem, args.order, args.aut_order)
    doc, code = answer(args.command, spec, orders, args.oracle,
                       args.with_oracle)
    sys.stdout.write(rp.render(doc))
    print(f"{rp.summary_line(doc)}  [{time.time() - t0:.1f}s]",
          file=sys.stderr)
    return code


def _mismatches(label: str, doc: Dict, code: int, **want) -> List[str]:
    """What an answer gets wrong; exit code 1 means a solve that did not
    stabilize."""
    out = [f"{label}{key}: got {doc[key]!r}, expected {value!r}"
           for key, value in want.items() if doc[key] != value]
    return out + ([f"{label}exit code {code}"] if code else [])


def _reproduce_one(entry: str) -> bool:
    """Answer a corpus entry through the commands and check the answers
    against its expectations: ``rigidity`` and ``deform --oracle``, whose
    canonical bases must be equal, or ``automorphisms`` for an entry
    without a map, or the degeneracy error of ``check``."""
    t0 = time.time()
    exp = EXPECTATIONS[entry]
    spec, orders = _load(entry)
    if exp.degenerate:
        try:
            answer("check", spec, orders)
            got = "no degeneracy error"
            failures = ["expected a degeneracy error from validation"]
        except DegenerateMapError as exc:
            got, failures = f"degenerate ({exc})", []
    elif exp.aut_only:
        doc, code = answer("automorphisms", spec, orders)
        got = f"aut dim {doc['dimension']}"
        failures = _mismatches("", doc, code, dimension=exp.aut_dim)
    else:
        doc, code = answer("rigidity", spec, orders)
        orc, orc_code = answer("deform", spec, orders, oracle=True)
        same = orc["basis"] == doc["basis"]
        got = (f"dim {doc['dimension']}, oracle {orc['dimension']} "
               f"({'same' if same else 'DIFFERENT'} span), {doc['verdict']}")
        failures = _mismatches(
            "", doc, code, dimension=exp.dim, verdict=exp.verdict,
            trivial_dimension=exp.trivial_dim,
            automorphism_dimension=exp.aut_dim)
        failures += _mismatches("oracle ", orc, orc_code, dimension=exp.dim)
        if not same:
            failures.append("oracle basis differs from the pipeline's")
    status = "ok" if not failures else "FAIL"
    print(f"reproduce {entry}: {status}  {got}  [{time.time() - t0:.1f}s]",
          file=sys.stderr)
    for f in failures:
        print(f"  {f}", file=sys.stderr)
    return not failures


def _reproduce(args) -> int:
    ids = CORPUS_IDS if args.problem in (None, "all") else [args.problem]
    for i in ids:
        if i not in CORPUS_IDS:
            raise ParseError(f"unknown corpus entry {i!r}")
    # a list, not a generator: the entries after a failure run too
    ok = all([_reproduce_one(i) for i in ids])
    return 0 if ok else 1


def _selftest(t0: float) -> int:
    """Fast internal consistency checks."""
    failures = []
    for eps in ("+1", "-1"):
        spec = parse_problem("vars z w; source: hyperquadric; "
                             f"target: hyperquadric {eps}; "
                             "option aut_order 7;", order=14)
        doc, _ = answer("automorphisms", spec, spec.orders())
        if doc["dimension"] != 10:
            failures.append(f"hyperquadric eps={eps}: automorphism "
                            f"dim {doc['dimension']}, expected 10")
    spec = load_corpus("example-6-1", order=20)
    doc, _ = answer("deform", spec, spec.orders(), oracle=True)
    if doc["dimension"] != 10:
        failures.append(f"model example at low order: dim {doc['dimension']}")
    for f in failures:
        print(f"selftest: {f}", file=sys.stderr)
    print(f"selftest: {'ok' if not failures else 'FAIL'}  "
          f"[{time.time() - t0:.1f}s]", file=sys.stderr)
    return 0 if not failures else 1


def main(argv: Optional[list] = None) -> int:
    ap = argparse.ArgumentParser(prog="crrigid", description=__doc__)
    ap.add_argument("command", choices=[
        "check", "normal-coords", "deform", "rigidity", "genericity",
        "automorphisms", "reproduce", "selftest"])
    ap.add_argument("problem", nargs="?",
                    help="problem file or corpus id "
                         f"({', '.join(CORPUS_IDS)}, or 'all')")
    ap.add_argument("--order", type=int, default=None,
                    help="working order of the solvers (default: the "
                         "file's work_order and oracle_order, else "
                         f"{SOLVER_ORDERS['work_order']} "
                         f"and {SOLVER_ORDERS['oracle_order']})")
    ap.add_argument("--aut-order", type=int, default=None,
                    help="truncation order of the automorphism solver "
                         "(default: the file's aut_order, else "
                         f"{SOLVER_ORDERS['aut_order']})")
    ap.add_argument("--oracle", action="store_true", default=None,
                    help="use the brute-truncation solver")
    ap.add_argument("--with-oracle", action="store_true", default=None,
                    help="cross-check the result with the brute solver")
    args = ap.parse_intermixed_args(argv)
    if args.command not in ("selftest", "reproduce") and args.problem is None:
        ap.error("missing problem file or corpus id")
    try:
        return run(args)
    except ValueError as exc:    # ParseError, DegenerateMapError, NotMappedError
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
