"""Series with coefficients that are linear forms in unknown parameters.

The deformation problem is linear in the unknown jet of the deformation
field, so every intermediate object of the jet parametrization is a finite
sum  sum_k  f_k(x) * Lambda_k  with ordinary truncated series f_k and
formal unknowns Lambda_k.  A :class:`LinSeries` is the
:class:`~crrigid.series.Series` whose coefficient at each exponent is the
:class:`~crrigid.jets.LinRow` ``{tag: Scalar}`` of that coefficient, and
all its algebra is that of :class:`~crrigid.series.Series`.
"""

from __future__ import annotations

from typing import Dict, Hashable, Mapping

from crrigid.jets import LinRow
from crrigid.series import Exponent, Frame, Series


class LinSeries(Series):
    """A truncated series whose coefficients are linear forms:
    ``coeffs[exp]`` is the nonzero :class:`LinRow` at ``exp``."""

    __slots__ = ()

    @staticmethod
    def from_tags(frm: Frame, comps: Mapping[Hashable, Series]) -> "LinSeries":
        """sum_k comps[k] * k, from one series per unknown tag."""
        out: Dict[Exponent, LinRow] = {}
        for tag, s in comps.items():
            for exp, c in s.coeffs.items():
                out.setdefault(exp, LinRow())[tag] = c
        return LinSeries(frm, out)

    # the same function under this class's own name: perfbench's layer
    # table wraps vars(LinSeries)["substitute"], which counts the
    # jet-linear substitutions apart from the Series ones
    substitute = Series.substitute

    def coefficient_row(self, exp: Exponent) -> LinRow:
        """The linear form attached to one series coefficient."""
        return self.coeffs.get(exp, LinRow())
