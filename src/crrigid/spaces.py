"""Deformation spaces, trivial subspaces, and rigidity verdicts.

Pulls the pieces together: the dimension of the space of infinitesimal
deformations of an embedding (from the jet parametrization or the brute
truncation solver), the subspace of trivial deformations obtained by
restricting infinitesimal automorphisms of the target along the map, the
two sufficient rigidity criteria, and a genericity certificate for the
full-rank property of the condition system.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, List, Optional, Sequence, Tuple

from crrigid.scalars import Scalar, I as IMAG
from crrigid.series import Series, frame, power_table, table_monomial
from crrigid.linalg import Row, in_span, rank_of, rref
from crrigid.geometry import Source, Target, target_vars
from crrigid.maps import MapGerm, map_frame, nondegeneracy, \
    embedding_residual, require_order, transversality
from crrigid.jets import JET4, JET4_ORDER, KernelSolve, bar_key, \
    column_count, coordinate, field_row
from crrigid.oracle import infinitesimal_automorphisms
from crrigid.pipeline import ConditionSystem, DegenerateMapError


class NotMappedError(ValueError):
    """The germ does not send the source hypersurface into the target."""


# -- closed-form automorphism algebra of the hyperquadrics ------------

def hyperquadric_hol0_basis(eps: int) -> List[List[Series]]:
    """Real basis (10 fields) of the infinitesimal automorphisms fixing 0
    of the hyperquadric Im w' = |z1'|^2 + eps |z2'|^2.

    Fields are returned as component triples over (z1, z2, w1), in a
    frame of order 8; all are polynomial of degree <= 2, and their
    tangency is checked to order 8.  Parameters: a real dilation t, real
    rotations h11, h22, a complex rotation h12, complex parabolic
    directions b1, b2 and a real parabolic direction s.
    """
    f = frame("z1", "z2", "w1", order=8, weights=(1, 1, 2))
    z1, z2, w = (Series.variable(f, v) for v in ("z1", "z2", "w1"))
    zero = Series.zero(f)
    e = Scalar(eps)
    basis = [
        # dilation t and rotations h11, h22
        [z1, z2, w.scale(Scalar(2))],
        [z1.scale(IMAG), zero, zero],
        [zero, z2.scale(IMAG), zero],
        # complex rotation h12 = 1 and h12 = i
        [z2, z1.scale(-e), zero],
        [z2.scale(IMAG), z1.scale(e * IMAG), zero],
        # parabolic s
        [z1 * w, z2 * w, w * w],
    ]
    # parabolic b1 in {1, i} and b2 in {1, i}
    ih = Scalar(0, 0, Fraction(1, 2))
    for j, bval in ((0, Scalar(1)), (0, IMAG), (1, Scalar(1)), (1, IMAG)):
        lead = [zero, zero]
        lead[j] = w.scale(bval.conjugate() * ih)
        mix = z1.scale(bval) if j == 0 else z2.scale(bval * e)
        basis.append([lead[0] + z1 * mix, lead[1] + z2 * mix, w * mix])
    _verify_tangent(Target.hyperquadric(eps, 8), basis)
    return basis


def _verify_tangent(target: Target, fields: Sequence[Sequence[Series]]) -> None:
    """Check Re sum_j rho_{Z_j} V_j = 0 on the target germ, exactly."""
    bind = target.graph_chart(target.graph_frame(fields[0][0].frame.order))
    r_on, rb_on = target.gradient_on(bind)
    names = target_vars(target.n)[:target.n]
    holo = {v: bind[v] for v in names}
    anti = {v: bind[target.swap[v]] for v in names}
    for V in fields:
        res = Series.zero(r_on[0].frame)
        for j in range(target.n):
            res = res + r_on[j] * V[j].substitute(holo) \
                + rb_on[j] * V[j].conj().substitute(anti)
        if not res.is_zero():
            raise ArithmeticError("field is not tangent to the target germ")


# -- trivial deformations: automorphisms restricted along the map -----

@dataclass
class TrivialSubspace:
    rows: List[Row]          # canonical basis of the 4-jets of V o H
    dim: int                 # rank of the restriction
    aut: KernelSolve         # the target automorphism computation


def trivial_subspace(H: MapGerm, target: Target,
                     aut_keq: int) -> TrivialSubspace:
    """The trivial deformations V o H, V an infinitesimal automorphism of
    the target fixing 0, as 4-jet vectors of the embedding."""
    aut = infinitesimal_automorphisms(target, keq=aut_keq, proj_order=4)
    mf = map_frame(JET4_ORDER)
    exps = [tuple(key[2:]) for key in aut.jet_keys]
    table = power_table([c.project(mf) for c in H.components], exps)
    VoH = [[Series.zero(mf)] * target.n for _ in aut.kernel_real]
    last = None
    for k, (key, exp) in enumerate(zip(aut.jet_keys, exps)):
        if exp != last:
            mono, last = table_monomial(table, exp), exp
        j = key[1]
        for V, vec in zip(VoH, aut.kernel_real):
            lam = coordinate(vec, k)
            if not lam.is_zero():
                V[j] = V[j] + mono.scale(lam)
    rows = rref([field_row(V) for V in VoH], column_count(JET4))
    return TrivialSubspace(rows, len(rows), aut)


# -- rigidity verdicts ------------------------------------------------

VERDICT_RIGID_VANISHING = "rigid (no nontrivial infinitesimal deformations)"
VERDICT_RIGID_TRIVIAL = "rigid (all infinitesimal deformations trivial)"
VERDICT_INCONCLUSIVE = "inconclusive"


@dataclass
class RigidityReport:
    dim: int                       # dim_R hol_0(H)
    stabilized: bool
    aut_dim: Optional[int]         # dim_R hol_0(M'), when computed
    aut_stabilized: Optional[bool]
    trivial_dim: Optional[int]     # rank of the restricted automorphisms
    trivial_contained: Optional[bool]
    levi_nondegenerate: bool
    verdict: str
    deformations: KernelSolve
    trivial: Optional[TrivialSubspace]


#: The weighted order to which :func:`validate_embedding` checks that H
#: maps the source germ into the target germ.
VALIDATION_ORDER = 10


def validate_embedding(H: MapGerm, source: Source, target: Target) -> None:
    """Raise if H is not a transversal 2-nondegenerate embedding of the
    source germ into the target germ, or if the germs are expanded below
    :data:`VALIDATION_ORDER`."""
    require_order(VALIDATION_ORDER, H, source, target)
    if not H.is_immersion():
        raise DegenerateMapError("map is not an immersion at 0")
    if not transversality(H):
        raise DegenerateMapError("map is not transversal at 0")
    if not embedding_residual(H, source, target,
                              VALIDATION_ORDER).is_zero():
        raise NotMappedError(
            "map does not send the source germ into the target germ")
    nd = nondegeneracy(H, source, target)
    if not nd.two_nondegenerate:
        raise DegenerateMapError("embedding is not 2-nondegenerate at 0")


def decide_rigidity(H: MapGerm, target: Target, sol: KernelSolve,
                    aut_keq: int) -> RigidityReport:
    """Apply the sufficient rigidity criteria to a deformation solve of H.

    ``sol`` is the solve being judged, from either route; H is expected
    to have passed :func:`validate_embedding`.  Verdicts: dimension zero
    is rigid; if the target is Levi-nondegenerate and the dimension
    equals dim_R hol_0(M'), with the restricted automorphisms spanning
    the whole kernel, the map is rigid; otherwise the criteria are
    silent.
    """
    dim = sol.dim
    ncols = column_count(sol.jet_keys)
    levi = target.levi_nondegenerate()

    aut_dim = aut_stab = triv_dim = contained = None
    triv = None
    if levi:
        triv = trivial_subspace(H, target, aut_keq=aut_keq)
        aut_dim = triv.aut.dim
        aut_stab = triv.aut.stabilized
        triv_dim = triv.dim
        contained = all(in_span(r, sol.kernel_real, ncols)
                        for r in triv.rows)

    if dim == 0 and sol.stabilized:
        verdict = VERDICT_RIGID_VANISHING
    elif (levi and sol.stabilized and aut_stab and contained
          and dim == aut_dim):
        verdict = VERDICT_RIGID_TRIVIAL
    else:
        verdict = VERDICT_INCONCLUSIVE
    return RigidityReport(dim, sol.stabilized, aut_dim, aut_stab,
                          triv_dim, contained, levi, verdict, sol, triv)


# -- genericity certificate -------------------------------------------

#: The ten jet slots that stay free in the model quadric case; the
#: condition system is full-rank on their complement.
FREE_SLOTS: Tuple[Hashable, ...] = (
    ("jet", 0, 1, 0), ("jetbar", 0, 1, 0),
    ("jet", 0, 0, 1), ("jetbar", 0, 0, 1),
    ("jet", 1, 1, 0), ("jetbar", 1, 1, 0),
    ("jet", 1, 0, 1), ("jetbar", 1, 0, 1),
    ("jet", 0, 1, 1), ("jet", 1, 2, 0),
)


@dataclass
class GenericityCertificate:
    rank: int
    ncols: int            # number of complement columns
    certified: bool       # full column rank on the complement


def genericity_certificate(system: ConditionSystem) -> GenericityCertificate:
    """Full-rank certificate of a condition system of the pipeline.

    The jet and its formal conjugate are treated as independent complex
    unknowns; the pole, jet and residual rows together with their formal
    conjugates are collected, the columns of :data:`FREE_SLOTS` are deleted,
    and the remaining matrix must have full column rank.  When it does, every
    solution of the system is determined by the free slots alone, which
    is the linear-algebra content of the genericity statement for
    perturbations of the model embedding.
    """
    cond = system.jet
    keys = JET4 + [bar_key(k) for k in JET4]
    drop = set(FREE_SLOTS)
    col = {k: i for i, k in enumerate(keys)}
    rows: List[Row] = []
    for crow in [*cond.rows_pole.values(), *cond.rows_jet.values(),
                 *system.residuals.values()]:
        for source_row in (crow,
                           {bar_key(k): v.conjugate()
                            for k, v in crow.items()}):
            r = {col[k]: v for k, v in source_row.items()
                 if k not in drop and not v.is_zero()}
            if r:
                rows.append(r)
    ncols = len(keys) - len(drop)
    rank = rank_of(rows, len(keys))
    return GenericityCertificate(rank, ncols, rank == ncols)
