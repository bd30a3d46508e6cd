"""Exact linear algebra over Q(i, sqrt(2)) (and its real subfield).

Rows are sparse dicts {column index: Scalar}.  The :class:`Eliminator`
keeps a fully reduced (Gauss-Jordan) row set with pivots chosen at the
smallest column index, which makes ranks, kernels and the canonical form
of a solution space deterministic once a column order is fixed.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, TypeVar

from crrigid.scalars import Scalar

Row = Dict[int, Scalar]
R = TypeVar("R")    # a ring element: a Scalar or a Series


class Eliminator:
    """Incremental exact Gauss-Jordan elimination on sparse rows."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivot_rows: Dict[int, Row] = {}  # pivot column -> normalized row

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def reduce(self, row: Row) -> Row:
        """Fully reduce a row against the current pivots (row not stored).

        Every entry sitting in a pivot column is eliminated, not just the
        leading one; otherwise stored rows would not stay in reduced form
        and the kernel basis would be wrong.
        """
        row = {c: v for c, v in row.items() if not v.is_zero()}
        while row:
            hits = [c for c in row if c in self.pivot_rows]
            if not hits:
                break
            lead = min(hits)
            piv = self.pivot_rows[lead]
            factor = row[lead]
            for c, v in piv.items():
                cur = row.get(c)
                s = (cur - factor * v) if cur is not None else -factor * v
                if s.is_zero():
                    row.pop(c, None)
                else:
                    row[c] = s
        return row

    def add_row(self, row: Row) -> bool:
        """Insert a row; returns True if it increased the rank."""
        row = self.reduce(row)
        if not row:
            return False
        lead = min(row)
        inv = row[lead].inverse()
        norm = {c: v * inv for c, v in row.items()}
        # back-eliminate the new pivot column from existing rows
        for p, prow in self.pivot_rows.items():
            f = prow.get(lead)
            if f is None:
                continue
            for c, v in norm.items():
                cur = prow.get(c)
                s = (cur - f * v) if cur is not None else -f * v
                if s.is_zero():
                    prow.pop(c, None)
                else:
                    prow[c] = s
        self.pivot_rows[lead] = norm
        return True

    def kernel_basis(self) -> List[Row]:
        """Canonical kernel basis (one vector per free column, unit there)."""
        pivots = self.pivot_rows
        free = [c for c in range(self.ncols) if c not in pivots]
        basis = []
        for f in free:
            vec: Row = {f: Scalar(1)}
            for p, prow in pivots.items():
                v = prow.get(f)
                if v is not None and not v.is_zero():
                    vec[p] = -v
            basis.append(vec)
        return basis


def rank_of(rows: Iterable[Row], ncols: int) -> int:
    elim = Eliminator(ncols)
    for r in rows:
        elim.add_row(r)
    return elim.rank


def rref(vectors: List[Row], ncols: int) -> List[Row]:
    """Canonical reduced row form of a list of vectors (for span comparison)."""
    elim = Eliminator(ncols)
    for v in vectors:
        elim.add_row(v)
    return [elim.pivot_rows[p] for p in sorted(elim.pivot_rows)]


def in_span(vec: Row, basis: List[Row], ncols: int) -> bool:
    elim = Eliminator(ncols)
    for v in basis:
        elim.add_row(v)
    return not elim.reduce(dict(vec))


def det3(m: List[List[R]]) -> R:
    """Determinant of a 3x3 matrix of ring elements."""
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def adjugate3(m: List[List[R]]) -> List[List[R]]:
    """Adjugate of a 3x3 matrix of ring elements (adj(m) @ m = det * I)."""
    c = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            r = [k for k in range(3) if k != i]
            s = [k for k in range(3) if k != j]
            minor = m[r[0]][s[0]] * m[r[1]][s[1]] - m[r[0]][s[1]] * m[r[1]][s[0]]
            c[j][i] = minor if (i + j) % 2 == 0 else -minor
    return c
