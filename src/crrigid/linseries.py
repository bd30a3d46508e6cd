"""Series with coefficients that are linear forms in unknown parameters.

The deformation problem is linear in the unknown jet of the deformation
field, so every intermediate object of the jet parametrization is a finite
sum  sum_k  f_k(x) * Lambda_k  with ordinary truncated series f_k and
formal unknowns Lambda_k.  A :class:`LinSeries` stores it the way its
callers read it: one sparse row ``{tag: Scalar}`` per exponent, the
linear form of that coefficient.  Every operation touches each monomial
once, whatever the number of unknowns, and forms a module over
:class:`~crrigid.series.Series`.  The unknown tags are those of
:mod:`crrigid.jets`.
"""

from __future__ import annotations

from typing import Dict, Hashable, Mapping, Optional

from crrigid.jets import LinRow, bar_key
from crrigid.series import (Exponent, Frame, Series, power_table, projection,
                            substitution_target, table_monomial)


def _add_row(out: Dict[Exponent, LinRow], exp: Exponent, row: LinRow,
             c=None) -> None:
    """out[exp] += c * row (row itself when c is None), in place; zero
    entries and empty rows are dropped."""
    row = dict(row) if c is None else {t: v * c for t, v in row.items()}
    acc = out.setdefault(exp, row)
    if acc is not row:
        for t, v in row.items():
            s = acc[t] + v if t in acc else v
            if s:
                acc[t] = s
            else:
                del acc[t]
        if not acc:
            del out[exp]


class LinSeries:
    """A truncated series whose coefficients are linear forms:
    ``rows[exp]`` is the nonzero form at ``exp`` (no zero entries)."""

    __slots__ = ("frame", "rows")

    def __init__(self, frm: Frame, rows: Optional[Dict[Exponent, LinRow]] = None):
        self.frame = frm
        self.rows = rows if rows is not None else {}

    @staticmethod
    def from_tags(frm: Frame, comps: Mapping[Hashable, Series]) -> "LinSeries":
        """sum_k comps[k] * k, from one series per unknown tag."""
        out: Dict[Exponent, LinRow] = {}
        for tag, s in comps.items():
            for exp, c in s.coeffs.items():
                out.setdefault(exp, {})[tag] = c
        return LinSeries(frm, out)

    def __add__(self, other: "LinSeries") -> "LinSeries":
        if self.frame != other.frame:
            raise ValueError("incompatible frames")
        out = {exp: dict(row) for exp, row in self.rows.items()}
        for exp, row in other.rows.items():
            _add_row(out, exp, row)
        return LinSeries(self.frame, out)

    def __neg__(self) -> "LinSeries":
        return LinSeries(self.frame, {exp: {t: -c for t, c in row.items()}
                                      for exp, row in self.rows.items()})

    def __sub__(self, other: "LinSeries") -> "LinSeries":
        return self + (-other)

    def __mul__(self, other: Series) -> "LinSeries":
        """Multiply by an ordinary series in the same frame."""
        frm = self.frame
        if frm != other.frame:
            raise ValueError("incompatible frames")
        terms = sorted((frm.wdeg(e), e, c) for e, c in other.coeffs.items())
        capped = frm.caps
        out: Dict[Exponent, LinRow] = {}
        for ea, row in self.rows.items():
            limit = frm.order - frm.wdeg(ea)
            for wb, eb, cb in terms:
                if wb > limit:
                    break
                exp = tuple(x + y for x, y in zip(ea, eb))
                # the break bounds the weighted degree; only caps remain
                if not (capped and any(exp[i] > c for i, c in capped)):
                    _add_row(out, exp, row, cb)
        return LinSeries(frm, out)

    def partial(self, var: str) -> "LinSeries":
        i = self.frame.index(var)
        out: Dict[Exponent, LinRow] = {}
        for exp, row in self.rows.items():
            k = exp[i]
            if k:
                out[exp[:i] + (k - 1,) + exp[i + 1:]] = {
                    t: c * k for t, c in row.items()}
        return LinSeries(self.frame, out)

    def project(self, target: Frame,
                rename: Optional[Mapping[str, str]] = None) -> "LinSeries":
        """:meth:`Series.project` of every coefficient."""
        move = projection(self.frame, target, rename)
        out: Dict[Exponent, LinRow] = {}
        for exp, row in self.rows.items():
            t = move(exp)
            if t is not None:
                out[t] = dict(row)
        return LinSeries(target, out)

    def conj(self) -> "LinSeries":
        """Formal conjugate: conjugated coefficients, and each jet tag
        swapped with its conjugate by :func:`bar_key`."""
        return LinSeries(self.frame, {
            exp: {bar_key(t): c.conjugate() for t, c in row.items()}
            for exp, row in self.rows.items()})

    def substitute(self, bindings: Mapping[str, Series]) -> "LinSeries":
        """:meth:`Series.substitute` of every coefficient, from one power
        table of the bindings; each monomial is formed once."""
        target = substitution_target(self.frame, bindings)
        table = power_table([bindings[v] for v in self.frame.vars], self.rows)
        out: Dict[Exponent, LinRow] = {}
        for exp, row in self.rows.items():
            for e, c in table_monomial(table, exp).coeffs.items():
                _add_row(out, e, row, c)
        return LinSeries(target, out)

    def coefficient_row(self, exp: Exponent) -> LinRow:
        """The linear form attached to one series coefficient."""
        return self.rows.get(exp, {})

    def support(self):
        return self.rows.keys()
