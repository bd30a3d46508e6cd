"""Shared fixtures.

The expensive solver runs (pipeline at working order 17, oracle at
truncation 16/17) are memoized in a session-scoped cache so that the
unit tests and the acceptance gate share one computation per corpus
entry and route.  Rigidity reports judge the cached pipeline solves,
genericity certificates read the cached pipeline's rows and the trivial
subspace is the one the rigidity report computed, so the cache runs no
corpus solve twice.
"""

import pytest

from crrigid.corpus import EXPECTATIONS, load_corpus
from crrigid.oracle import direct_solve, infinitesimal_automorphisms
from crrigid.pipeline import solve_deformation
from crrigid.spaces import decide_rigidity, genericity_certificate, \
    validate_embedding


class ComputeCache:
    def __init__(self):
        self._store = {}

    def _get(self, key, make):
        if key not in self._store:
            self._store[key] = make()
        return self._store[key]

    def spec(self, entry, order=24):
        return self._get(("spec", entry, order), lambda: load_corpus(entry, order))

    def pipeline(self, entry, work_order=None):
        exp = EXPECTATIONS[entry]
        if work_order is None:
            work_order = exp.work_order
        s = self.spec(entry)
        return self._get(("pipeline", entry, work_order),
                         lambda: solve_deformation(s.H, s.source, s.target,
                                                   work_order=work_order))

    def oracle(self, entry, keq=None):
        exp = EXPECTATIONS[entry]
        if keq is None:
            keq = exp.oracle_order
        s = self.spec(entry)
        return self._get(("oracle", entry, keq), lambda: direct_solve(
            s.H, s.source, s.target, keq=keq))

    def automorphisms(self, entry, keq=None):
        if keq is None:
            keq = EXPECTATIONS[entry].aut_keq
        s = self.spec(entry)
        return self._get(("aut", entry, keq), lambda: infinitesimal_automorphisms(
            s.target, keq=keq))

    def trivial(self, entry):
        return self.rigidity(entry).trivial

    def rigidity(self, entry):
        def make():
            s = self.spec(entry)
            validate_embedding(s.H, s.source, s.target)
            return decide_rigidity(s.H, s.source, s.target,
                                   self.pipeline(entry))
        return self._get(("rigidity", entry), make)

    def genericity(self, entry):
        return self._get(("genericity", entry),
                         lambda: genericity_certificate(self.pipeline(entry)))


@pytest.fixture(scope="session")
def cache():
    return ComputeCache()
