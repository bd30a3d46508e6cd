"""Substitution bindings: series bound to variables, and the one owner
of the products formed from them, cut to the frame
(:meth:`Bindings.image`), which :meth:`~crrigid.series.Series.substitute`
and :func:`~crrigid.oracle.jet_residual` sum.

Every chart of a complexified germ is a :class:`Bindings`
(``Source.chart``, ``Target.graph_chart``, ``maps.pull_back``), and lives
as long as the stage that built it, so the series substituted there
share its powers.  The class has a module of its own: with byte code
off, each process compiles the sources, and the compiler's peak memory
for the largest module stays in the process's resident set.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Mapping
from operator import add
from typing import Callable, Dict, Iterable, Optional, Sequence

from crrigid.series import Exponent, Frame, Series


class Bindings(Mapping):
    """Series bound to variables, all in one frame, for
    :meth:`Series.substitute`: a read-only mapping that keeps the
    products substitution forms, for every series substituted through it.

    A binding of a single term with coefficient 1, such as a chart
    variable or z*chi, multiplies by shifting exponents; the others are
    the generators, whose powers are grown as asked for and kept, and so
    are the monomials a substitution forms from them (:meth:`image`).
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
        self._terms: Dict[tuple, list] = {}

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

    def image(self, names: Sequence[str],
              factors: Optional[Sequence[Series]] = None) -> Callable:
        """The map (j, exp) -> the terms (e, c), to be iterated once, of
        factors[j] * prod_i binding(names[i])^exp[i] that the frame
        admits; without ``factors``, j is None and the factor 1.

        A binding of one term with coefficient 1 multiplies by shifting
        exponents, the others (the generators) by their monomial, formed
        with factors[j] once from the kept powers and kept as the weighted
        degrees, exponents and coefficients of its terms in weighted-degree
        order.  Unshifted, those kept terms are the answer, a product
        formed in the frame.  Shifted, those past the order are a tail, cut
        at ``limit``, and those past a cap are dropped: the truncation of
        the full product, as a term past the order or a cap has every
        multiple past it too.  Monomials alone are kept for every call.
        """
        frm, shifts, wdeg = self.frame, self._shifts, self.frame.wdeg
        admits = frm.admits if frm.caps else None
        moves = [(i, shifts[v]) for i, v in enumerate(names) if v in shifts]
        pos = {v: i for i, v in enumerate(names)}
        take = [pos.get(v) for v in self.gens]
        zero = frm.zero_exp()
        cuts: Dict[Exponent, tuple] = {}
        products = self._terms if factors is None else {}

        def at(j: Optional[int], exp: Exponent) -> Iterable:
            cut = cuts.get(exp)
            if cut is None:
                shift = zero
                for i, s in moves:
                    k = exp[i]
                    if k:
                        shift = tuple([a + k * b for a, b in zip(shift, s)])
                key = tuple([0 if i is None else exp[i] for i in take])
                cut = cuts[exp] = (shift if any(shift) else None,
                                   frm.order - wdeg(shift), key)
            shift, limit, key = cut
            kept = products.get((j, key))
            if kept is None:
                prod = self.monomial(key)
                if j is not None:
                    prod = factors[j] * prod if any(key) else factors[j]
                terms = sorted((wdeg(e), e, c) for e, c in prod.coeffs.items())
                kept = products[j, key] = [[t[i] for t in terms]
                                           for i in (0, 1, 2)]
            wdegs, exps, coeffs = kept
            if shift is not None:
                exps = [tuple(map(add, e, shift))
                        for e in exps[:bisect_right(wdegs, limit)]]
                if admits is not None:
                    return [(e, c) for e, c in zip(exps, coeffs) if admits(e)]
            return zip(exps, coeffs)

        return at

    def monomial(self, key: Exponent) -> Series:
        """prod_i g_i^key[i] over the generators g_i of :attr:`gens`,
        from their kept powers, grown as asked for."""
        term = None
        for powers, k in zip(self._powers, key):
            while len(powers) <= k:
                powers.append(powers[-1] * powers[1])
            if k:
                term = powers[k] if term is None else term * powers[k]
        return Series.const(self.frame, 1) if term is None else term
