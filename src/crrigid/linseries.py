"""Series with coefficients that are linear forms in unknown parameters.

The deformation problem is linear in the unknown jet of the deformation
field, so every intermediate object of the jet parametrization is a finite
sum  sum_k  f_k(x) * Lambda_k  with ordinary truncated series f_k and
formal unknowns Lambda_k.  A :class:`LinSeries` stores the f_k keyed by a
hashable unknown tag and forms a module over :class:`~crrigid.series.Series`.

Unknown tags used in this package:

* ``("jet", j, m, n)``     -- Taylor coefficient of component j at z^m w^n
* ``("jetbar", j, m, n)``  -- its formal complex conjugate
* ``("dbar", h, j1, j2)``  -- placeholder for a derivative of a conjugated
  component along the first conjugate Segre set (resolved mid-pipeline)
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Mapping, Optional

from crrigid.scalars import Scalar
from crrigid.series import Frame, Series


class LinSeries:
    """A finite sum of (unknown tag) * (ordinary series)."""

    __slots__ = ("frame", "comps")

    def __init__(self, frm: Frame, comps: Optional[Dict[Hashable, Series]] = None):
        self.frame = frm
        self.comps = comps if comps is not None else {}

    @staticmethod
    def zero(frm: Frame) -> "LinSeries":
        return LinSeries(frm, {})

    @staticmethod
    def term(key: Hashable, series: Series) -> "LinSeries":
        if series.is_zero():
            return LinSeries(series.frame, {})
        return LinSeries(series.frame, {key: series})

    def is_zero(self) -> bool:
        return all(s.is_zero() for s in self.comps.values())

    def keys(self):
        return self.comps.keys()

    def _wrap(self, comps: Dict[Hashable, Series]) -> "LinSeries":
        return LinSeries(self.frame, {k: s for k, s in comps.items() if not s.is_zero()})

    def __add__(self, other: "LinSeries") -> "LinSeries":
        if self.frame != other.frame:
            raise ValueError("incompatible frames")
        out = dict(self.comps)
        for k, s in other.comps.items():
            out[k] = out[k] + s if k in out else s
        return self._wrap(out)

    def __neg__(self) -> "LinSeries":
        return LinSeries(self.frame, {k: -s for k, s in self.comps.items()})

    def __sub__(self, other: "LinSeries") -> "LinSeries":
        return self + (-other)

    def __mul__(self, other) -> "LinSeries":
        """Multiply by an ordinary series or scalar."""
        if isinstance(other, Series):
            return self.map(lambda s: s * other)
        return self.map(lambda s: s.scale(other))

    __rmul__ = __mul__

    def map(self, fn: Callable[[Series], Series]) -> "LinSeries":
        """Apply a linear map of series to every component.

        The result lives in the frame ``fn`` maps into, also when there
        are no components (``fn`` may change frame, e.g. by restricting
        to a coordinate hyperplane).
        """
        out: Dict[Hashable, Series] = {}
        frm = None
        for k, s in self.comps.items():
            r = fn(s)
            frm = r.frame
            if not r.is_zero():
                out[k] = r
        if frm is None:
            frm = fn(Series.zero(self.frame)).frame
        return LinSeries(frm, out)

    def partial(self, var: str) -> "LinSeries":
        return self.map(lambda s: s.partial(var))

    def substitute(self, bindings: Mapping[str, Series]) -> "LinSeries":
        return self.map(lambda s: s.substitute(bindings))

    def conj(self, rename=None,
             keymap: Optional[Callable[[Hashable], Hashable]] = None) -> "LinSeries":
        """Formal conjugate: conjugates the series and relabels unknowns."""
        out: Dict[Hashable, Series] = {}
        frm = self.frame
        for k, s in self.comps.items():
            nk = keymap(k) if keymap else k
            r = s.conj(rename)
            frm = r.frame
            out[nk] = r
        return LinSeries(frm, out)

    def coefficient_row(self, exp) -> Dict[Hashable, Scalar]:
        """The linear form attached to one series coefficient."""
        row: Dict[Hashable, Scalar] = {}
        for k, s in self.comps.items():
            c = s.coeffs.get(exp)
            if c is not None:
                row[k] = c
        return row

    def support(self):
        exps = set()
        for s in self.comps.values():
            exps.update(s.support())
        return exps

    def evaluate(self, assignment: Mapping[Hashable, Scalar]) -> Series:
        """Contract the unknowns with concrete scalar values."""
        out = Series.zero(self.frame)
        for k, s in self.comps.items():
            v = assignment.get(k)
            if v is not None and not v.is_zero():
                out = out + s.scale(v)
        return out


def bar_key(key: Hashable) -> Hashable:
    """Swap ("jet", ...) and ("jetbar", ...) tags."""
    tag = key[0]
    if tag == "jet":
        return ("jetbar",) + tuple(key[1:])
    if tag == "jetbar":
        return ("jet",) + tuple(key[1:])
    raise ValueError(f"cannot conjugate unknown tag {key!r}")
