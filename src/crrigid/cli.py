"""Command-line front end.

    crrigid <command> [options] <file | corpus-id>

Commands: check, normal-coords, deform, rigidity, genericity,
automorphisms, reproduce, selftest.  The JSON report goes to stdout, a
one-line human summary to stderr.  Exit codes: 0 success, 1 assertion
failure, 2 input error.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional

from crrigid import report as rp
from crrigid.corpus import CORPUS_IDS, EXPECTATIONS, corpus_text, load_corpus
from crrigid.oracle import direct_solve, infinitesimal_automorphisms
from crrigid.parser import ParseError, ProblemSpec, parse_problem
from crrigid.pipeline import DegenerateMapError, solve_deformation
from crrigid.spaces import NotMappedError, decide_rigidity, \
    genericity_certificate, validate_embedding


def _load(args):
    """The problem and its solver orders (work, oracle, automorphism),
    with the germs expanded deep enough for each of them."""
    order = (args.order or 17) + 7
    if args.problem in CORPUS_IDS:
        text = corpus_text(args.problem)
    else:
        try:
            with open(args.problem, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read {args.problem}: {exc}")
    spec = parse_problem(text, order=order)
    wo = args.order or int(spec.options.get("work_order", 17))
    oo = args.order or int(spec.options.get("oracle_order", 16))
    ao = args.aut_order or 9
    # the pipeline's stage-1 frame and the truncated solvers' K = keq + 1
    need = max(wo + 5, oo + 1, ao + 1)
    if need > order:
        spec = parse_problem(text, order=need)
    return spec, (wo, oo, ao)


#: The options each command reads; the pipeline-only ones do not apply
#: when ``--oracle`` replaces the pipeline.  Any other option given is an
#: input error.
_READS = {
    "check": ("--order",),
    "normal-coords": ("--order",),
    "automorphisms": ("--order", "--aut-order"),
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
        given = getattr(args, flag[2:].replace("-", "_")) not in (None, False)
        if given and flag not in _READS[route]:
            raise ParseError(f"{flag} does not apply to {route}")


def _need_map(spec: ProblemSpec) -> None:
    if spec.H is None:
        raise ParseError("this command needs a 'map:' statement")


def _emit(doc, t0: float) -> None:
    sys.stdout.write(rp.render(doc))
    print(f"{rp.summary_line(doc)}  [{time.time() - t0:.1f}s]",
          file=sys.stderr)


def run(args) -> int:
    t0 = time.time()
    cmd = args.command
    _check_flags(args)
    if cmd == "selftest":
        return _selftest(t0)
    if cmd == "reproduce":
        return _reproduce(args, t0)
    spec, (wo, oo, ao) = _load(args)
    if cmd == "normal-coords":
        _emit(rp.normal_coords_doc(spec), t0)
        return 0
    if cmd == "automorphisms":
        aut = infinitesimal_automorphisms(spec.target, keq=ao)
        _emit(rp.automorphisms_doc(aut), t0)
        return 0
    _need_map(spec)
    H, source, target = spec.H, spec.source, spec.target
    validate_embedding(H, source, target)
    if cmd == "check":
        _emit(rp.check_doc(spec), t0)
        return 0
    if args.oracle:
        sol = direct_solve(H, source, target, keq=oo)
    else:
        sol = solve_deformation(H, source, target, work_order=wo)
    if cmd == "genericity":
        _emit(rp.genericity_doc(genericity_certificate(sol)), t0)
        return 0
    if cmd == "rigidity":
        doc = rp.rigidity_doc(decide_rigidity(H, source, target, sol,
                                              aut_keq=ao))
    else:
        oracle = direct_solve(H, source, target, keq=oo) \
            if args.with_oracle else None
        doc = rp.deform_doc(sol, oracle)
    _emit(doc, t0)
    return 0 if sol.stabilized else 1


def _reproduce_one(entry: str, t0: float) -> bool:
    exp = EXPECTATIONS[entry]
    spec = load_corpus(entry, order=max(exp.work_order, exp.oracle_order) + 7)
    failures = []
    if exp.degenerate:
        try:
            solve_deformation(spec.H, spec.source, spec.target,
                              work_order=10)
            failures.append("expected a degeneracy error, got none")
        except DegenerateMapError:
            pass
    elif exp.aut_only:
        aut = infinitesimal_automorphisms(spec.target, keq=exp.aut_keq)
        if aut.dim != exp.aut_dim or not aut.stabilized:
            failures.append(f"automorphism dim {aut.dim}, "
                            f"expected {exp.aut_dim}")
    else:
        validate_embedding(spec.H, spec.source, spec.target)
        sol = solve_deformation(spec.H, spec.source, spec.target,
                                work_order=exp.work_order)
        rep = decide_rigidity(spec.H, spec.source, spec.target, sol)
        oracle = direct_solve(spec.H, spec.source, spec.target,
                              keq=exp.oracle_order)
        for name, got, want in (
                ("dim", rep.dim, exp.dim),
                ("verdict", rep.verdict, exp.verdict),
                ("trivial dim", rep.trivial_dim, exp.trivial_dim),
                ("automorphism dim", rep.aut_dim, exp.aut_dim),
                ("oracle dim", oracle.dim, exp.dim),
                ("stabilized", rep.stabilized, True),
                ("oracle stabilized", oracle.stabilized, True)):
            if got != want:
                failures.append(f"{name}: got {got!r}, expected {want!r}")
    status = "ok" if not failures else "FAIL"
    print(f"reproduce {entry}: {status}  [{time.time() - t0:.1f}s]",
          file=sys.stderr)
    for f in failures:
        print(f"  {f}", file=sys.stderr)
    return not failures


def _reproduce(args, t0: float) -> int:
    ids = CORPUS_IDS if args.problem in (None, "all") else [args.problem]
    for i in ids:
        if i not in CORPUS_IDS:
            raise ParseError(f"unknown corpus entry {i!r}")
    ok = all(_reproduce_one(i, time.time()) for i in ids)
    return 0 if ok else 1


def _selftest(t0: float) -> int:
    """Fast internal consistency checks."""
    from crrigid.spaces import hyperquadric_hol0_basis
    failures = []
    try:
        hyperquadric_hol0_basis(1)
        hyperquadric_hol0_basis(-1)
    except ArithmeticError as exc:
        failures.append(str(exc))
    for eps in (1, -1):
        from crrigid.geometry import Target
        aut = infinitesimal_automorphisms(Target.hyperquadric(eps, 14),
                                          keq=7)
        if aut.dim != 10:
            failures.append(f"hyperquadric eps={eps}: automorphism "
                            f"dim {aut.dim}, expected 10")
    spec = load_corpus("example-6-1", order=20)
    sol = direct_solve(spec.H, spec.source, spec.target, keq=16)
    if sol.dim != 10:
        failures.append(f"model example at low order: dim {sol.dim}")
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
                    help="working order of the solvers")
    ap.add_argument("--aut-order", type=int, default=None,
                    help="truncation order of the automorphism solver "
                         "(default 9)")
    ap.add_argument("--oracle", action="store_true",
                    help="use the brute-truncation solver")
    ap.add_argument("--with-oracle", action="store_true",
                    help="cross-check the result with the brute solver")
    args = ap.parse_intermixed_args(argv)
    if args.command not in ("selftest",) and args.problem is None \
            and args.command != "reproduce":
        ap.error("missing problem file or corpus id")
    try:
        return run(args)
    except ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (DegenerateMapError, NotMappedError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
