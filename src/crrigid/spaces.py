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
from typing import Hashable, List, Optional, Tuple

from crrigid.series import Series, frame
from crrigid.bindings import Bindings
from crrigid.linalg import Row, rank_of, rref
from crrigid.geometry import Source, Target, target_vars
from crrigid.maps import MapGerm, NondegeneracyCheck, map_frame, \
    nondegeneracy, embedding_residual, transversality
from crrigid.jets import JET4, JET4_ORDER, KernelSolve, LinRow, bar_key, \
    column_count, coordinates, field_row
from crrigid.linseries import LinSeries
from crrigid.oracle import infinitesimal_automorphisms
from crrigid.pipeline import ConditionSystem, DegenerateMapError


class NotMappedError(ValueError):
    """The germ does not send the source hypersurface into the target."""


# -- trivial deformations: automorphisms restricted along the map -----

@dataclass
class TrivialSubspace:
    rows: List[Row]          # canonical basis of the 4-jets of V o H
    aut: KernelSolve         # the target automorphism computation


def trivial_subspace(H: MapGerm, target: Target,
                     aut_keq: int) -> TrivialSubspace:
    """The trivial deformations V o H, V an infinitesimal automorphism of
    the target fixing 0, as 4-jet vectors of the embedding.  H vanishes
    at 0, so the 4-jet of V o H is that of V's 4-jet composed with H."""
    aut = infinitesimal_automorphisms(target, keq=aut_keq, proj_order=4)
    vf = frame(*target_vars(target.n)[:target.n], order=4)
    mf = map_frame(JET4_ORDER)
    bind = Bindings(dict(zip(vf.vars,
                             [c.project(mf) for c in H.components])))
    # V_j of every vector, one series: coefficients keyed by vector index
    V = [LinSeries(vf) for _ in range(target.n)]
    for i, vec in enumerate(aut.kernel_real):
        for k, v in coordinates(vec).items():
            _, j, *e = aut.jet_keys[k]
            V[j].coeffs.setdefault(tuple(e), LinRow())[i] = v
    VoH = [v.substitute(bind) for v in V]
    rows = [field_row([Series(mf, {e: r[i] for e, r in s.coeffs.items()
                                   if i in r}) for s in VoH])
            for i in range(aut.dim)]
    return TrivialSubspace(rref(rows, column_count(JET4)), aut)


# -- rigidity verdicts ------------------------------------------------

VERDICT_RIGID_VANISHING = "rigid (no nontrivial infinitesimal deformations)"
VERDICT_RIGID_TRIVIAL = "rigid (all infinitesimal deformations trivial)"
VERDICT_INCONCLUSIVE = "inconclusive"


@dataclass
class RigidityReport:
    deformations: KernelSolve               # hol_0(H)
    trivial: Optional[TrivialSubspace]      # None: target Levi-degenerate
    trivial_contained: Optional[bool]
    verdict: str


def validate_embedding(H: MapGerm, source: Source, target: Target
                       ) -> NondegeneracyCheck:
    """Raise if H is not a transversal 2-nondegenerate embedding of the
    source germ into the target germ, checked to the order the germs are
    expanded to; else return H's nondegeneracy at 0."""
    if not H.is_immersion():
        raise DegenerateMapError("map is not an immersion at 0")
    if not transversality(H):
        raise DegenerateMapError("map is not transversal at 0")
    order = min(g.frame.order for g in (H, source, target))
    if not embedding_residual(H, source, target, order).is_zero():
        raise NotMappedError(
            "map does not send the source germ into the target germ")
    nd = nondegeneracy(H, source, target)
    if nd.s0.is_zero():
        raise DegenerateMapError("embedding is not 2-nondegenerate at 0")
    return nd


def decide_rigidity(H: MapGerm, target: Target, sol: KernelSolve,
                    aut_keq: int) -> RigidityReport:
    """Apply the sufficient rigidity criteria to a deformation solve of H.

    ``sol`` is the solve being judged, from either route; H is expected
    to have passed :func:`validate_embedding`.  Verdicts: dimension zero
    is rigid; if the target is Levi-nondegenerate and the restricted
    automorphisms span the whole kernel (they lie in it and their rank
    is its dimension), the map is rigid; otherwise the criteria are
    silent.
    """
    triv = contained = None
    if target.levi_nondegenerate():
        triv = trivial_subspace(H, target, aut_keq=aut_keq)
        # kernel_real is reduced, so its rank is dim
        contained = rank_of(sol.kernel_real + triv.rows,
                            column_count(sol.jet_keys)) == sol.dim

    if sol.dim == 0 and sol.stabilized:
        verdict = VERDICT_RIGID_VANISHING
    elif (contained and sol.stabilized and triv.aut.stabilized
          and sol.dim == len(triv.rows)):
        verdict = VERDICT_RIGID_TRIVIAL
    else:
        verdict = VERDICT_INCONCLUSIVE
    return RigidityReport(sol, triv, contained, verdict)


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
    ncols: int            # complement columns; full rank when rank == ncols


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
    keys = JET4 + [bar_key(k) for k in JET4]
    drop = set(FREE_SLOTS)
    col = {k: i for i, k in enumerate(keys)}
    rows: List[Row] = []
    for crow in [*system.rows_pole.values(), *system.rows_jet.values(),
                 *system.residuals.values()]:
        for source_row in (crow, crow.conjugate()):
            rows.append({col[k]: v for k, v in source_row.items()
                         if k not in drop})
    ncols = len(keys) - len(drop)
    rank = rank_of(rows, len(keys))
    return GenericityCertificate(rank, ncols)
