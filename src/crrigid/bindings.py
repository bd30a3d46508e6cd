"""Substitution bindings: series bound to variables, sharing the products
that substitution forms.

:meth:`~crrigid.series.Series.substitute` goes through a :class:`Bindings`.
Every chart of a complexified germ is one (``Source.chart``,
``Target.graph_chart``, ``maps.pull_back``), and lives as long as the
stage that built it, so the series substituted there share its powers.
The class has a module of its own: with byte code off, each process
compiles the sources, and the compiler's peak memory for the largest
module stays in the process's resident set.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Callable, Dict, Optional, Sequence, Tuple

from crrigid.series import Exponent, Frame, Series, table_monomial


class Bindings(Mapping):
    """Series bound to variables, all in one frame, for
    :meth:`Series.substitute`: a read-only mapping that keeps the
    products substitution forms, for every series substituted through it.

    A binding of a single term with coefficient 1, such as a chart
    variable or z*chi, multiplies by shifting exponents.  The other
    bindings are the generators: their powers are grown as asked for and
    kept, and so are the terms of the monomials a substitution forms from
    them (:meth:`terms`).
    """

    def __init__(self, bindings: Mapping[str, Series]):
        self._bind = dict(bindings)
        frames = {b.frame for b in self._bind.values()}
        if len(frames) != 1:
            raise ValueError("bindings with mismatched frames")
        self.frame = frames.pop()
        self._shifts = {}
        for v, b in self._bind.items():
            if len(b.coeffs) == 1:
                (e, c), = b.coeffs.items()
                if c == 1:
                    self._shifts[v] = e
        #: the variables bound to generators, in binding order
        self.gens = tuple(v for v in self._bind if v not in self._shifts)
        self._powers = [[Series.const(self.frame, 1), self._bind[v]]
                        for v in self.gens]
        self._terms: Dict[Exponent, list] = {}

    def __getitem__(self, var: str) -> Series:
        return self._bind[var]

    def __iter__(self):
        return iter(self._bind)

    def __len__(self) -> int:
        return len(self._bind)

    def target(self, frm: Frame) -> Frame:
        """The frame a substitution into ``frm`` lands in, this one.

        Every variable of ``frm`` must be bound.  Each binding must have
        zero constant term and weighted vanishing order at least the
        weight of the variable it replaces (this keeps truncation exact).
        """
        if set(self._bind) != set(frm.vars):
            raise ValueError("substitute requires a binding for every "
                             "variable")
        for v, w in zip(frm.vars, frm.weights):
            b = self._bind[v]
            if not b.constant_term().is_zero():
                raise ValueError(f"binding for {v} has nonzero constant term")
            if b.vanishing_order() < w:
                raise ValueError(f"binding for {v} vanishes to too low an "
                                 "order")
        return self.frame

    def splitter(self, names: Sequence[str]
                 ) -> Callable[[Exponent], Tuple[Optional[Exponent], int,
                                                 Exponent]]:
        """The map from an exponent over bound ``names`` to (shift, limit,
        key): prod_v binding(v)^exp[v] is the monomial of the generators
        with powers ``key`` (:meth:`monomial`) moved by ``shift`` (None
        when it is zero); a term of that monomial of weighted degree above
        ``limit`` moves past the frame's order."""
        frm, shifts = self.frame, self._shifts
        moves = [(i, shifts[v]) for i, v in enumerate(names) if v in shifts]
        pos = {v: i for i, v in enumerate(names)}
        take = [pos.get(v) for v in self.gens]
        zero = frm.zero_exp()

        def split(exp: Exponent) -> Tuple[Optional[Exponent], int, Exponent]:
            shift = zero
            for i, s in moves:
                k = exp[i]
                if k:
                    shift = tuple([a + k * b for a, b in zip(shift, s)])
            key = tuple([0 if i is None else exp[i] for i in take])
            if not any(shift):
                return None, frm.order, key
            return shift, frm.order - frm.wdeg(shift), key

        return split

    def monomial(self, key: Exponent) -> Series:
        """prod_i g_i^key[i] over the generators g_i of :attr:`gens`."""
        for powers, k in zip(self._powers, key):
            while len(powers) <= k:
                powers.append(powers[-1] * powers[1])
        if not any(key):
            return Series.const(self.frame, 1)
        return table_monomial(self._powers, key)

    def terms(self, key: Exponent) -> list:
        """The terms (wdeg, e, c) of :meth:`monomial`, sorted, kept."""
        terms = self._terms.get(key)
        if terms is None:
            wdeg = self.frame.wdeg
            terms = self._terms[key] = sorted(
                (wdeg(e), e, c) for e, c in self.monomial(key).coeffs.items())
        return terms
