"""Layer spans measured from outside crrigid, by wrapping its public names.

:func:`install` replaces each function of :data:`LAYERS` by a timing
wrapper on its defining module or class, on every ``crrigid`` module that
imported the name (``spaces`` and ``cli`` re-import ``solve_deformation``,
for instance) and on every alias in the class (``Series.__rmul__`` is
``__mul__``).  Each call records its duration and, through a stack of open
calls, the part of it spent in wrapped children, which gives self time.
Spans with parent ids are kept in memory for the layers that are called a
bounded number of times and written out with :meth:`Tracer.dump`; the hot
ones (series products, row operations) keep only their totals.  Scalar
arithmetic is counted, not timed: a timer around every scalar product
would cost more than the product.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import time

# (metric name, module, attribute path, keep spans)
LAYERS = (
    ("pipeline.solve_deformation", "crrigid.pipeline", "solve_deformation", True),
    ("pipeline.jet_conditions", "crrigid.pipeline", "jet_conditions", True),
    ("pipeline.conjugate_reflection", "crrigid.pipeline",
     "conjugate_reflection", True),
    ("pipeline.direct_reflection", "crrigid.pipeline", "direct_reflection", True),
    ("pipeline.segre_fiber", "crrigid.pipeline", "segre_fiber", True),
    ("pipeline.residual_rows", "crrigid.pipeline", "residual_rows", True),
    ("linseries.substitute", "crrigid.linseries", "LinSeries.substitute", True),
    ("linseries.coefficient_row", "crrigid.linseries",
     "LinSeries.coefficient_row", False),
    ("oracle.direct_solve", "crrigid.oracle", "direct_solve", True),
    ("oracle.deformation_residual", "crrigid.oracle",
     "deformation_residual", True),
    ("oracle.infinitesimal_automorphisms", "crrigid.oracle",
     "infinitesimal_automorphisms", True),
    ("spaces.trivial_subspace", "crrigid.spaces", "trivial_subspace", True),
    ("spaces.decide_rigidity", "crrigid.spaces", "decide_rigidity", True),
    ("geometry.Target.graph", "crrigid.geometry", "Target.graph", True),
    ("linalg.add_row", "crrigid.linalg", "Eliminator.add_row", False),
    ("linalg.kernel_basis", "crrigid.linalg", "Eliminator.kernel_basis", True),
    ("series.mul", "crrigid.series", "Series.__mul__", False),
    ("series.substitute", "crrigid.series", "Series.substitute", False),
    ("series.reversion", "crrigid.series", "reversion", True),
    ("series.solve_implicit", "crrigid.series", "solve_implicit", True),
    ("parser.parse_problem", "crrigid.parser", "parse_problem", True),
    ("spaces.validate_embedding", "crrigid.spaces", "validate_embedding", True),
    ("maps.nondegeneracy", "crrigid.maps", "nondegeneracy", True),
    ("report.render", "crrigid.report", "render", True),
)

# Scalar counters: products, of which both operands rational, of which
# either operand carries sqrt(d); sums.
NCOUNTS = 6
MUL, MUL_RATIONAL, MUL_SQRTD, ADD, ROWS_ADDED, ROWS_RANK = range(NCOUNTS)


class Tracer:
    """Open-call stack, per-layer totals, spans and counters."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.ids = itertools.count(1)
        self.stack = []          # open calls: [span id or None, child seconds]
        self.active = {}         # layer -> open calls (recursion guard)
        self.totals = {name: [0, 0.0, 0.0] for name, *_ in LAYERS}
        self.spans = []          # (id, parent id, layer, start, end)
        self.counts = [0] * NCOUNTS

    def wrap(self, name, fn, keep):
        stack, active, spans = self.stack, self.active, self.spans
        rec = self.totals[name]
        ids, clock = self.ids, time.perf_counter
        active[name] = 0

        def traced(*args, **kwargs):
            sid = next(ids) if keep else None
            parent = next((f[0] for f in reversed(stack) if f[0]), None) \
                if keep else None
            frame = [sid, 0.0]
            stack.append(frame)
            active[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[name] -= 1
                took = end - start
                rec[0] += 1
                if not active[name]:
                    rec[1] += took
                rec[2] += took - frame[1]
                if stack:
                    stack[-1][1] += took
                if keep:
                    spans.append((sid, parent, name, start, end))

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"totals": self.totals, "counts": self.counts,
                       "spans": [(i, p, n, s - self.t0, e - self.t0)
                                 for i, p, n, s, e in self.spans]}, fh)


def _counting_scalars(tracer: Tracer, Scalar) -> None:
    counts = tracer.counts
    mul, add = Scalar.__mul__, Scalar.__add__

    def shape(x):
        """0 rational, 1 in Q(i), 2 involves sqrt(d)."""
        if type(x) is not Scalar:
            return 0
        if x.b or x.e:
            return 2
        return 1 if x.c else 0

    def counted_mul(self, other):
        counts[MUL] += 1
        s = max(shape(self), shape(other))
        if s == 0:
            counts[MUL_RATIONAL] += 1
        elif s == 2:
            counts[MUL_SQRTD] += 1
        return mul(self, other)

    def counted_add(self, other):
        counts[ADD] += 1
        return add(self, other)

    _replace_in_class(Scalar, mul, counted_mul)
    _replace_in_class(Scalar, add, counted_add)


def _replace_in_class(cls, orig, new) -> None:
    for attr, value in list(vars(cls).items()):
        if value is orig:
            setattr(cls, attr, new)


def install(tracer: Tracer) -> None:
    """Wrap every layer of :data:`LAYERS` and count scalar operations.

    Call after ``import crrigid.cli``, so that every module that re-imports
    a wrapped name is loaded and gets the wrapper too.
    """
    for name, modname, attr, keep in LAYERS:
        mod = importlib.import_module(modname)
        if "." in attr:
            clsname, meth = attr.split(".")
            cls = getattr(mod, clsname)
            orig = vars(cls)[meth]
            wrapped = tracer.wrap(name, orig, keep)
            if name == "linalg.add_row":
                wrapped = _counting_rank(tracer, wrapped)
            _replace_in_class(cls, orig, wrapped)
            continue
        orig = getattr(mod, attr)
        wrapped = tracer.wrap(name, orig, keep)
        for modname2, mod2 in list(sys.modules.items()):
            if modname2 == "crrigid" or modname2.startswith("crrigid."):
                for attr2, value in list(vars(mod2).items()):
                    if value is orig:
                        setattr(mod2, attr2, wrapped)
    from crrigid.scalars import Scalar
    _counting_scalars(tracer, Scalar)


def _counting_rank(tracer: Tracer, add_row):
    counts = tracer.counts

    def counted(self, row):
        raised = add_row(self, row)
        counts[ROWS_ADDED] += 1
        if raised:
            counts[ROWS_RANK] += 1
        return raised

    return counted
