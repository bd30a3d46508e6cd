"""The jet coordinates every answer is stated in.

Unknown tags used in this package:

* ``("jet", j, e...)``     -- Taylor coefficient of component j at the
  exponent e (z^m w^n for a deformation field)
* ``("jetbar", j, e...)``  -- its formal complex conjugate

A :class:`LinRow` is a complex-linear form over these tags, the
coefficient ring of a :class:`~crrigid.linseries.LinSeries`.  A solve
works over the real coordinates of an ordered list of jet tags: column
2k holds Re, column 2k+1 holds Im of tag k.  Only this module turns a
tag index into a real column or back, and :func:`harvest_kernel` is the
one elimination both solvers read their kernel from; it takes the real
rows of :func:`realify_row`, which reads each complex row through
:func:`crrigid.linalg.integer_row` and stays in integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Dict, Hashable, Iterable, List, Sequence, Tuple

from crrigid.linalg import Eliminator, IntRow, Row, integer_row, \
    numerators, rref
from crrigid.scalars import ZERO, Scalar, I as IMAG
from crrigid.series import Series


def bar_key(key: Hashable) -> Hashable:
    """Swap ("jet", ...) and ("jetbar", ...) tags."""
    tag = key[0]
    if tag == "jet":
        return ("jetbar",) + tuple(key[1:])
    if tag == "jetbar":
        return ("jet",) + tuple(key[1:])
    raise ValueError(f"cannot conjugate unknown tag {key!r}")


class LinRow(dict):
    """A complex-linear row {tag: Scalar} without zero entries.  Only
    ``+=`` changes a row, in place; the rest build new rows."""

    __slots__ = ()

    def __add__(self, other: "LinRow") -> "LinRow":
        return LinRow(self).__iadd__(other)

    def __iadd__(self, other: "LinRow") -> "LinRow":
        for t, v in other.items():
            s = self[t] + v if t in self else v
            if s:
                self[t] = s
            else:
                del self[t]
        return self

    def __neg__(self) -> "LinRow":
        return LinRow({t: -v for t, v in self.items()})

    def __mul__(self, c) -> "LinRow":
        """The row times a Scalar or an int."""
        out = LinRow()    # filled here: a dict display would be copied
        for t, v in self.items():
            out[t] = v * c
        return out

    __rmul__ = __mul__

    def conjugate(self) -> "LinRow":
        """Each entry conjugated, its tag swapped by :func:`bar_key`."""
        return LinRow({bar_key(t): v.conjugate() for t, v in self.items()})


def jet_unknowns(ncomp: int, nvars_weights: Sequence[int], kmax: int,
                 by_weight: bool = False) -> List[Hashable]:
    """Ordered unknown tags ("jet", j, exp...) with 1 <= deg(exp) <= kmax.

    With ``by_weight`` the degree bound uses the weighted degree
    sum(w_i e_i); this matters for soundness of the truncated solvers: an
    equation row of weighted order W only involves jet coordinates of
    weighted degree <= W, so a weighted unknown set never silently drops
    contributions of admissible rows.
    """
    nv = len(nvars_weights)
    exps = []
    for exp in product(*(range(kmax + 1) for _ in range(nv))):
        deg = sum(e * w for e, w in zip(exp, nvars_weights)) if by_weight \
            else sum(exp)
        if deg > kmax or sum(exp) == 0:
            continue
        exps.append(exp)
    exps.sort(key=lambda e: (sum(e), tuple(-x for x in e)))
    keys = []
    for exp in exps:
        for j in range(ncomp):
            keys.append(("jet", j) + tuple(exp))
    return keys


#: The 4-jet of a deformation field over (z, w), into C^3: validation
#: rejects any other target as not 2-nondegenerate.
JET4: List[Hashable] = jet_unknowns(3, (1, 2), 4)
#: The largest weighted degree (z-degree + 2 w-degree) in :data:`JET4`.
JET4_ORDER = max(m + 2 * n for (_, _, m, n) in JET4)


def column_count(keys: Sequence[Hashable]) -> int:
    """The number of real columns over ``keys``."""
    return 2 * len(keys)


def column_label(c: int, keys: Sequence[Hashable]) -> str:
    """The report name of real column c over (z, w) jet tags: "im d12 V3"
    is the imaginary part of the z w^2 coefficient of component 3."""
    _, j, m, n = keys[c // 2]
    return f"{'im' if c % 2 else 're'} d{m}{n} V{j + 1}"


def coordinate(vec: Row, k: int) -> Scalar:
    """The complex coordinate of tag k in a real vector."""
    return vec.get(2 * k, ZERO) + vec.get(2 * k + 1, ZERO) * IMAG


def realify_row(row: LinRow, col: Dict[Hashable, int]) -> List[IntRow]:
    """Split a complex-linear row in (Lambda, conj Lambda) into real-linear
    rows over (Re Lambda, Im Lambda), as integer rows for
    :meth:`~crrigid.linalg.Eliminator.add_row`.

    ``col`` numbers the unbarred unknown tags.  The row contributes its
    nonzero real and imaginary parts, at most two real rows, each up to
    one positive factor: ints when no part has a sqrt(2) term, else
    tuples (x, y, 0, 0).
    """
    # each part as numerators (x, y) of x + y sqrt(2) over one denominator
    parts: List[Dict[int, Tuple[int, int]]] = [{}, {}]    # Re, Im
    for key, v in integer_row(row).items():
        a, b, c, e = numerators(v)
        # v = A + i C; with Lam = x + i y, v Lam = (A x - C y) + i (C x + A y)
        # and v conj Lam = (A x + C y) + i (C x - A y)
        k, s = (col[key], 1) if key[0] == "jet" else (col[bar_key(key)], -1)
        for part, cidx, p, q in ((0, 2 * k, a, b), (1, 2 * k, c, e),
                                 (0, 2 * k + 1, -s * c, -s * e),
                                 (1, 2 * k + 1, s * a, s * b)):
            if p or q:
                x, y = parts[part].get(cidx, (0, 0))
                parts[part][cidx] = (x + p, y + q)
    sqrt2 = any(y for part in parts for _, y in part.values())
    return [r for r in ({c: (x, y, 0, 0) if sqrt2 else x
                         for c, (x, y) in part.items() if x or y}
                        for part in parts) if r]


def field_row(V: Sequence[Series], keys: Sequence[Hashable] = JET4) -> Row:
    """The real vector of a field's jet over ``keys``: tag ("jet", j, e...)
    reads the coefficient of the exponent e in V[j]."""
    out: Row = {}
    for k, key in enumerate(keys):
        c = V[key[1]].coefficient(key[2:])
        rp, ip = c.real_part(), c.imag_part()
        if not rp.is_zero():
            out[2 * k] = rp
        if not ip.is_zero():
            out[2 * k + 1] = ip
    return out


@dataclass
class KernelSolve:
    """A solved deformation or automorphism space, from either route."""
    dims: Dict[Hashable, int]    # truncation (K, K) or harvest order -> dim
    kernel_real: List[Row]       # canonical basis over the real columns
    jet_keys: List[Hashable]     # the tags of those columns

    @property
    def dim(self) -> int:
        return len(self.kernel_real)

    @property
    def stabilized(self) -> bool:    # every order gives one dimension
        return len(set(self.dims.values())) == 1


def projected_kernel(kernel: List[Row], ncols: int) -> List[Row]:
    """Canonical basis of the span of ``kernel`` projected onto its first
    ``ncols`` columns; its length is the projected dimension."""
    return rref([{c: v for c, v in vec.items() if c < ncols}
                 for vec in kernel], ncols)


def harvest_kernel(lead: List[Hashable], rest: Sequence[Hashable],
                   harvests: Iterable[Tuple[Hashable, Iterable[LinRow]]]
                   ) -> KernelSolve:
    """The real kernel of complex rows harvested at consecutive orders,
    projected onto the tags ``lead``.

    One elimination over the real columns of ``lead + rest`` takes the
    new rows of each harvest (order, rows) and records the kernel
    projected onto ``lead`` after each order; the
    reduced row form is canonical, so each kernel is that of a fresh
    elimination.  The answer is the last order's, stabilized when every
    order gives one dimension.
    """
    keys = list(lead) + list(rest)
    col = {k: i for i, k in enumerate(keys)}
    elim = Eliminator(column_count(keys))

    dims: Dict[Hashable, int] = {}
    for order, rows in harvests:
        for row in rows:
            for r in realify_row(row, col):
                elim.add_row(r)
        kernel = projected_kernel(elim.kernel_basis(), column_count(lead))
        dims[order] = len(kernel)
    return KernelSolve(dims, kernel, lead)
