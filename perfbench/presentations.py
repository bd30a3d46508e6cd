"""Seeded equivalent presentations of the worked-example corpus.

A presentation re-states a corpus entry through a biholomorphic change of
target coordinates Phi, built from triangular polynomial shears:

* ``q``-shear  z2 -> z2 + q(z1, w1), every monomial of q of weighted
  degree 3 or 4 (weight 1 for z1, 2 for w1; degree 2 is left out because
  it can cancel the z^2 term of the map (z, z^2, w));
* ``r``-shear  z1 -> z1 + r(z2, w1), every monomial of r of ordinary
  degree 2 or more.

Both fix the origin and are tangent to the identity, so the target
rho o Phi keeps its normalized linear part.  The problem text keeps the
source and the entry's ``option`` lines, replaces the target by
rho o Phi and the map by Phi^-1 o H.  The deformation dimension, the
verdict and the automorphism and trivial dimensions are invariant under
Phi, so the expected answer is the entry's ``corpus.EXPECTATIONS`` record.

Everything here is plain text manipulation: a draw is a pure function of
``(workload, seed, slot, entry)`` and never consults the solver, so a draw that
turns out degenerate or wrong is reported, not re-drawn.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

# Coefficients of the shear monomials, as problem-file text over Q(i).
# Real and non-real coefficients are kept apart because a non-real one
# can triple the cost of a solve (example-6-4-t2 on the oracle route:
# about 7 s against 19 s), while the choice within a class leaves the
# number of scalar and series products the same to within 5 %.
REAL: Tuple[str, ...] = ("1", "(-1)", "(1/2)", "(-1/2)", "2")
NONREAL: Tuple[str, ...] = ("i", "(-i)", "(1+i)", "(1-i)")
COEFFS: Tuple[str, ...] = REAL + NONREAL

# Monomials of q(z1, w1), weighted degree 3 and 4.
Q_MONOMIALS: Tuple[str, ...] = ("z1^3", "z1*w1", "z1^4", "z1^2*w1", "w1^2")

# Monomials of r(z2, w1), ordinary degree 2 and 3.
R_MONOMIALS: Tuple[str, ...] = ("z2^2", "z2*w1", "w1^2",
                                 "z2^3", "z2^2*w1", "z2*w1^2")

_HYPERQUADRIC = {"+1": "z1*conj(z1) + z2*conj(z2)",
                 "1": "z1*conj(z1) + z2*conj(z2)",
                 "": "z1*conj(z1) + z2*conj(z2)",
                 "-1": "z1*conj(z1) - z2*conj(z2)"}

_VAR = re.compile(r"\b(z1|z2|w1)\b")


@dataclass(frozen=True)
class Shear:
    """One triangular shear; ``kind`` is ``"q"`` or ``"r"``.

    ``terms`` is a tuple of (coefficient, monomial) texts; an empty tuple
    is the identity.
    """

    kind: str
    terms: Tuple[Tuple[str, str], ...]

    def polynomial(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*{m}" for c, m in self.terms)

    def describe(self) -> str:
        var = "z2" if self.kind == "q" else "z1"
        return f"{var} -> {var} + {self.polynomial()}"


@dataclass(frozen=True)
class Presentation:
    shears: Tuple[Shear, ...]
    text: str


def substitute(text: str, images: Dict[str, str]) -> str:
    """Replace the target variables z1, z2, w1 simultaneously by texts."""
    return _VAR.sub(lambda m: f"({images[m.group(1)]})"
                    if m.group(1) in images else m.group(1), text)


def _statements(text: str) -> List[Tuple[str, str, str]]:
    """(head, body, whole statement) of each ;-terminated statement,
    comments dropped and white space collapsed."""
    body = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    out = []
    for stmt in body.split(";"):
        stmt = " ".join(stmt.split())
        if not stmt:
            continue
        m = re.match(r"^(vars|source|target|map|option)\b(\(\d+\))?\s*:?\s*",
                     stmt)
        if m is None:
            raise ValueError(f"unrecognized statement {stmt!r}")
        out.append((m.group(1), stmt[m.end():], stmt))
    return out


def split_components(body: str) -> List[str]:
    """The comma-separated components of a parenthesized map text."""
    body = body.strip()
    if not (body.startswith("(") and body.endswith(")")):
        raise ValueError(f"map is not parenthesized: {body!r}")
    parts, depth, start = [], 0, 1
    for k, ch in enumerate(body):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                parts.append(body[start:k].strip())
        elif ch == "," and depth == 1:
            parts.append(body[start:k].strip())
            start = k + 1
    return parts


def shear_target(equation: str, shear: Shear) -> str:
    """rho o S for a target equation text in z1, z2, w1."""
    if not shear.terms:
        return equation
    if shear.kind == "q":
        return substitute(equation, {"z2": f"z2 + {shear.polynomial()}"})
    return substitute(equation, {"z1": f"z1 + {shear.polynomial()}"})


def unshear_map(comps: Sequence[str], shear: Shear) -> List[str]:
    """S^-1 o H for map component texts (h1, h2, h3)."""
    h1, h2, h3 = comps
    if not shear.terms:
        return [h1, h2, h3]
    if shear.kind == "q":
        q_of_h = substitute(shear.polynomial(), {"z1": h1, "w1": h3})
        return [h1, f"({h2}) - ({q_of_h})", h3]
    r_of_h = substitute(shear.polynomial(), {"z2": h2, "w1": h3})
    return [f"({h1}) - ({r_of_h})", h2, h3]


def present(entry: str, corpus_text: str, shears: Sequence[Shear]) -> str:
    """Problem text of ``entry`` seen through Phi = S_1 o S_2 o ... .

    The target becomes rho o S_1 o S_2 o ..., the map
    ... o S_2^-1 o S_1^-1 o H; the source and option lines are kept.
    """
    names = "; ".join(s.describe() for s in shears) or "identity"
    lines = [f"# {entry} through the target shear(s) {names}"]
    for head, body, stmt in _statements(corpus_text):
        if head == "target":
            if "(" in stmt.split(":", 1)[0]:
                raise ValueError("only 3-dimensional targets can be sheared")
            low = body.replace(" ", "").lower()
            if low.startswith("hyperquadric"):
                sign = low[len("hyperquadric"):]
                equation = f"imag(w1) = {_HYPERQUADRIC[sign]}"
            else:
                equation = body
            for s in shears:
                equation = shear_target(equation, s)
            lines.append(f"target: {equation};")
        elif head == "map":
            comps = split_components(body)
            for s in shears:
                comps = unshear_map(comps, s)
            lines.append(f"map: ({', '.join(comps)});")
        else:
            lines.append(f"{stmt};")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ShearPlan:
    """What a seed may choose for one shear: its coefficient, among
    ``coeffs``.  The kind and the monomial are fixed, because the monomial
    moves the cost of a solve by up to three times."""

    kind: str
    monomial: str
    coeffs: Tuple[str, ...]

    def __post_init__(self):
        table = Q_MONOMIALS if self.kind == "q" else R_MONOMIALS
        if self.kind not in ("q", "r") or self.monomial not in table:
            raise ValueError(f"not a {self.kind}-shear monomial: "
                             f"{self.monomial!r}")
        if not self.coeffs or not set(self.coeffs) <= set(COEFFS):
            raise ValueError(f"coefficients outside COEFFS: {self.coeffs}")


def draw(workload: str, seed: int, slot: int, entry: str, corpus_text: str,
         plan: Sequence[ShearPlan]) -> Presentation:
    """The presentation of ``entry`` in one slot of a workload for one seed:
    one shear per plan item, its coefficient drawn from a stream seeded by
    (workload, seed, slot, entry)."""
    rng = random.Random(f"{workload}/{seed}/{slot}/{entry}")
    shears = tuple(Shear(p.kind, ((rng.choice(p.coeffs), p.monomial),))
                   for p in plan)
    return Presentation(shears, present(entry, corpus_text, shears))
