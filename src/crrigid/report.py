"""Deterministic machine-readable reports.

Every solver run is summarized into a plain dict (JSON-serializable,
fixed key order, scalars printed exactly) plus a short human summary.
Timing is deliberately kept out of the JSON document so that identical
inputs produce byte-identical reports.
"""

from __future__ import annotations

import json
from typing import Dict, Hashable, List, Sequence

from crrigid.jets import column_label
from crrigid.linalg import Row
from crrigid.maps import NondegeneracyCheck, transversality
from crrigid.parser import ProblemSpec
from crrigid.series import Series
from crrigid.spaces import FREE_SLOTS, GenericityCertificate, \
    RigidityReport


def basis_doc(kernel: List[Row], jet_keys: Sequence[Hashable]
              ) -> List[Dict[str, str]]:
    """Each kernel vector by its real 4-jet coordinates, sorted by column."""
    return [{column_label(c, jet_keys): str(vec[c]) for c in sorted(vec)}
            for vec in kernel]


def check_doc(spec: ProblemSpec, nd: NondegeneracyCheck) -> Dict:
    """The check report of a problem with a map, whose nondegeneracy at 0
    is ``nd``."""
    H, tgt = spec.H, spec.target
    return {
        "command": "check",
        "target_levi_signature": list(tgt.levi_signature()),
        "target_levi_nondegenerate": tgt.levi_nondegenerate(),
        "immersion": H.is_immersion(),
        "transversal": transversality(H),
        "span_dims": nd.span_dims,
        "k0": nd.k0,
        "two_nondegenerate": not nd.s0.is_zero(),
        "s0": str(nd.s0),
    }


#: The weighted order up to which a report prints a series.
NORMAL_COORDS_ORDER = 8


def series_terms(s: Series) -> Dict[str, str]:
    """The terms of s of weighted order <= :data:`NORMAL_COORDS_ORDER`,
    by monomial."""
    terms = {}
    for exp in sorted(s.coeffs):
        if s.frame.wdeg(exp) <= NORMAL_COORDS_ORDER:
            name = " ".join(f"{v}^{e}" for v, e in zip(s.frame.vars, exp) if e)
            terms[name or "1"] = str(s.coeffs[exp])
    return terms


def normal_coords_doc(spec: ProblemSpec) -> Dict:
    """Q, and, when the source was not in normal coordinates, the change g
    and the map H(z, w + i g) that the solvers read."""
    doc: Dict = {"command": "normal-coords", "order": NORMAL_COORDS_ORDER,
                 "Q": series_terms(spec.source.Q)}
    if spec.change is not None:
        doc["g"] = series_terms(spec.change)
        if spec.H is not None:
            doc["map"] = [series_terms(c) for c in spec.H.components]
    return doc


def with_map_change(doc: Dict, spec: ProblemSpec) -> Dict:
    """``doc``, with g when the map was rewritten as H(z, w + i g)."""
    if spec.change is not None:
        doc["map_rewritten_with_g"] = series_terms(spec.change)
    return doc


def dims_doc(dims: Dict[Hashable, int]) -> Dict[str, int]:
    """Dimensions by truncation or harvest order, sorted by order."""
    return {str(k): v for k, v in sorted(dims.items())}


def deform_doc(sol, oracle=None) -> Dict:
    doc: Dict = {"command": "deform"}
    doc["dimension"] = sol.dim
    doc["stabilized"] = sol.stabilized
    doc["dims_by_order"] = dims_doc(sol.dims)
    doc["basis"] = basis_doc(sol.kernel_real, sol.jet_keys)
    if oracle is not None:
        doc["oracle_dimension"] = oracle.dim
        doc["oracle_stabilized"] = oracle.stabilized
        # equal canonical kernels have equal lengths
        doc["oracle_agrees"] = oracle.kernel_real == sol.kernel_real
    return doc


def rigidity_doc(rep: RigidityReport) -> Dict:
    sol, triv = rep.deformations, rep.trivial
    doc: Dict = {"command": "rigidity"}
    doc["dimension"] = sol.dim
    doc["stabilized"] = sol.stabilized
    doc["target_levi_nondegenerate"] = triv is not None
    doc["automorphism_dimension"] = None if triv is None else triv.aut.dim
    doc["trivial_dimension"] = None if triv is None else len(triv.rows)
    doc["trivial_contained"] = rep.trivial_contained
    doc["verdict"] = rep.verdict
    doc["basis"] = basis_doc(sol.kernel_real, sol.jet_keys)
    return doc


def genericity_doc(cert: GenericityCertificate) -> Dict:
    return {
        "command": "genericity",
        "rank": cert.rank,
        "columns": cert.ncols,
        "full_rank": cert.rank == cert.ncols,
        "free_slots": [list(map(str, k)) for k in FREE_SLOTS],
    }


def automorphisms_doc(aut) -> Dict:
    return {
        "command": "automorphisms",
        "dimension": aut.dim,
        "stabilized": aut.stabilized,
        "dims_by_order": dims_doc(aut.dims),
    }


def render(doc: Dict) -> str:
    """Canonical JSON text: stable ordering and spacing."""
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"


def summary_line(doc: Dict) -> str:
    cmd = doc.get("command")
    if cmd == "deform":
        tail = "" if doc["stabilized"] else " (NOT stabilized)"
        return f"dim hol_0(H) = {doc['dimension']}{tail}"
    if cmd == "rigidity":
        return (f"dim hol_0(H) = {doc['dimension']}, "
                f"verdict: {doc['verdict']}")
    if cmd == "genericity":
        state = "full rank" if doc["full_rank"] else "RANK DEFICIENT"
        return f"certificate rank {doc['rank']}/{doc['columns']}: {state}"
    if cmd == "check":
        return (f"transversal={doc.get('transversal')} "
                f"k0={doc.get('k0')} "
                f"levi_signature={doc.get('target_levi_signature')}")
    if cmd == "automorphisms":
        tail = "" if doc["stabilized"] else " (NOT stabilized)"
        return f"dim hol_0(M') = {doc['dimension']}{tail}"
    return cmd or ""
