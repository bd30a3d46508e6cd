"""Exact linear algebra over Q(i, sqrt(2)) (and its real subfield).

Rows in and out of :func:`rank_of` and :func:`rref` are sparse dicts
{column index: Scalar}; zero entries in are ignored.  The
:class:`Eliminator` keeps a fully reduced (Gauss-Jordan) row set with
pivots chosen at the smallest column index, which makes ranks, kernels
and the canonical form of a solution space deterministic once a column
order is fixed.

:meth:`Eliminator.add_row` takes a homogeneous integer row with no zero
entry: {column: int} if rational, else {column: (a, b, c, e)} for
(a + b sqrt(2)) + i (c + e sqrt(2)).  :func:`integer_row` is the one
conversion of a Scalar row to that form.  Stored rows are primitive.  A
pivot row p is scaled by the norm conjugate of its pivot, a positive int
P then, and a row r is reduced fraction-free (Bareiss, Math. Comp. 22,
1968), r <- (P r - f p) / gcd(P, f), with one content gcd per changed
row.  Scalars are formed on output: p / P.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Dict, Iterable, List, Tuple, TypeVar, Union

from crrigid.scalars import Scalar, reduced

Row = Dict[int, Scalar]
R = TypeVar("R")    # a ring element: a Scalar or a Series

# an entry of an integer row: an int in a rational row, else (a, b, c, e)
IntRow = Dict[int, Union[int, Tuple[int, int, int, int]]]


def numerators(v) -> Tuple[int, int, int, int]:
    """An entry of an integer row as its numerators (a, b, c, e)."""
    return v if type(v) is tuple else (v, 0, 0, 0)


def _mul(x: Tuple[int, ...], y: Tuple[int, ...]) -> Tuple[int, ...]:
    """The product of two elements given by their numerators (a, b, c, e)."""
    (a1, b1, c1, e1), (a2, b2, c2, e2) = x, y
    return (a1 * a2 - c1 * c2 + 2 * (b1 * b2 - e1 * e2),
            a1 * b2 + b1 * a2 - c1 * e2 - e1 * c2,
            a1 * c2 + c1 * a2 + 2 * (b1 * e2 + e1 * b2),
            a1 * e2 + e1 * a2 + b1 * c2 + c1 * b2)


def integer_row(row: Row) -> IntRow:
    """The nonzero entries of ``row`` over their common denominator."""
    d = lcm(*[v.nd for v in row.values()])   # zero has denominator 1
    if not any(v.nb or v.nc or v.ne for v in row.values()):
        return {c: v.na * (d // v.nd) for c, v in row.items() if v.na}
    return {c: tuple(n * (d // v.nd) for n in (v.na, v.nb, v.nc, v.ne))
            for c, v in row.items() if v}


def _primitive(row: IntRow, lead: int) -> IntRow:
    """``row`` times the norm conjugate of its entry at ``lead``, over the
    gcd of its numerators (int entries if rational): that entry is > 0."""
    x = row[lead]
    if type(x) is int:
        g = -gcd(*row.values()) if x < 0 else gcd(*row.values())
        return row if g == 1 else {c: v // g for c, v in row.items()}
    a, b, c, e = x
    if b or c or e:
        # x conj(x) = p + q sqrt(2) > 0, and p - q sqrt(2) > 0 too (the
        # same sum of squares); for real x, x (a - b sqrt(2)) is rational
        p, q = a * a + c * c + 2 * (b * b + e * e), 2 * (a * b + c * e)
        u = _mul((a, b, -c, -e), (p, -q, 0, 0)) if c or e else (a, -b, 0, 0)
        row = {col: _mul(u, v) for col, v in row.items()}
    g = gcd(*(n for v in row.values() for n in v))
    g = -g if row[lead][0] < 0 else g
    if any(v[1] or v[2] or v[3] for v in row.values()):
        return {col: tuple(n // g for n in v) for col, v in row.items()}
    return {col: v[0] // g for col, v in row.items()}


def _eliminate(row: IntRow, prow: IntRow, lead: int) -> IntRow:
    """(P row - f prow) / gcd(P, f), for f the entry of ``row`` and P the
    positive int entry of ``prow`` at ``lead``: the entry at lead cancels.
    A rational ``row`` is updated in place."""
    f, P = row[lead], prow[lead]
    if type(f) is int and type(P) is int:
        g = gcd(P, f)
        m, k = P // g, f // g
        if m != 1:
            for c in row:
                row[c] *= m
        for c, v in prow.items():
            s = row.get(c, 0) - k * v
            if s:
                row[c] = s
            else:
                del row[c]
        return row
    f, P = numerators(f), numerators(P)[0]
    g = gcd(P, *f)
    m, k = P // g, tuple(n // g for n in f)
    row = {c: (m * a, m * b, m * x, m * e)
           for c, (a, b, x, e) in zip(row, map(numerators, row.values()))}
    for c, v in prow.items():
        t = _mul(k, numerators(v))
        a, b, x, e = row.get(c, (0, 0, 0, 0))
        s = (a - t[0], b - t[1], x - t[2], e - t[3])
        if s[0] or s[1] or s[2] or s[3]:
            row[c] = s
        else:
            del row[c]
    return row


class Eliminator:
    """Incremental exact Gauss-Jordan elimination on sparse rows."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        self._rows: Dict[int, IntRow] = {}   # pivot column -> primitive row
        self._holders = {}  # column -> pivot columns of rows that may hold it

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _reduce(self, row: IntRow) -> IntRow:
        """``row`` with every entry in a pivot column eliminated: a stored
        row is zero in the other pivot columns, so one pass clears them."""
        rows = self._rows
        for c in [c for c in row if c in rows]:
            row = _eliminate(row, rows[c], c)
        return row

    def add_row(self, row: IntRow) -> bool:
        """Insert an integer row, which may be changed in place; returns
        True if it increased the rank."""
        new = self._reduce(row)
        if not new:
            return False
        lead = min(new)
        new = _primitive(new, lead)
        rows, holders = self._rows, self._holders
        held = [holders.setdefault(c, set()) for c in new if c != lead]
        # back-eliminate the new pivot column from the rows that hold it
        for q in holders.pop(lead, ()):
            if lead in rows[q]:
                rows[q] = _primitive(_eliminate(rows[q], new, lead), q)
                for h in held:
                    h.add(q)
        for h in held:
            h.add(lead)
        rows[lead] = new
        return True

    def kernel_basis(self, first: int) -> List[Row]:
        """The kernel projected onto the columns from ``first`` on,
        renumbered from 0: one vector per free column there, unit at it;
        first = 0 gives the canonical kernel basis.  Exact, since each row
        is fully reduced and pivoted at its smallest column: a row pivoted
        from first on has no entry before first, and a row pivoted before
        first holds no pivot column but its own, so its pivot unknown meets
        it whatever the later columns are.  The rows pivoted from first on
        thus cut out the projection of the full kernel."""
        rows = self._rows
        basis = {f: {f - first: Scalar(1)}
                 for f in range(first, self.ncols) if f not in rows}
        for p, prow in rows.items():
            if p >= first:
                d = -numerators(prow[p])[0]
                for c, v in prow.items():
                    if c != p:
                        basis[c][p - first] = reduced(*numerators(v), d)
        return list(basis.values())


def _eliminated(rows: Iterable[Row], ncols: int) -> Eliminator:
    elim = Eliminator(ncols)
    for r in rows:
        elim.add_row(integer_row(r))
    return elim


def rank_of(rows: Iterable[Row], ncols: int) -> int:
    return _eliminated(rows, ncols).rank


def rref(vectors: List[Row], ncols: int) -> List[Row]:
    """Canonical reduced row form of a list of vectors (for span comparison)."""
    return [{c: reduced(*numerators(v), numerators(prow[p])[0])
             for c, v in sorted(prow.items())}
            for p, prow in sorted(_eliminated(vectors, ncols)._rows.items())]


def det3(m: List[List[R]]) -> R:
    """Determinant of a 3x3 matrix of ring elements."""
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def adjugate3(m: List[List[R]]) -> List[List[R]]:
    """Adjugate of a 3x3 matrix of ring elements (adj(m) @ m = det * I):
    with rows and columns taken cyclically, the cofactor of (i, j) is
    m[i+1][j+1] m[i+2][j+2] - m[i+1][j+2] m[i+2][j+1], sign included."""
    def cofactor(i: int, j: int) -> R:
        i1, i2, j1, j2 = (i + 1) % 3, (i + 2) % 3, (j + 1) % 3, (j + 2) % 3
        return m[i1][j1] * m[i2][j2] - m[i1][j2] * m[i2][j1]
    return [[cofactor(j, i) for j in range(3)] for i in range(3)]
