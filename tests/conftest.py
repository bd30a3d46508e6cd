"""Shared fixtures.

The expensive solver runs are memoized in a session-scoped cache so that
the unit tests and the acceptance gate share one computation per corpus
entry and route, at the solver orders the entry's problem file states
(``ProblemSpec.orders``, as the command line resolves them).  The
pipeline solve eliminates the cached condition system, which the
genericity certificate and the pole-row tests read; rigidity reports
judge the cached pipeline solves and the trivial subspace is the one the
rigidity report computed, so the cache runs no corpus solve twice.
"""

import pytest

from crrigid.corpus import load_corpus
from crrigid.oracle import direct_solve, infinitesimal_automorphisms
from crrigid.pipeline import condition_system, solve_conditions
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

    def orders(self, entry):
        """The entry's (work, oracle, automorphism) orders."""
        return self.spec(entry).orders()

    def system(self, entry):
        s = self.spec(entry)
        return self._get(("system", entry), lambda: condition_system(
            s.H, s.source, s.target, self.orders(entry)[0]))

    def pipeline(self, entry):
        return self._get(("pipeline", entry),
                         lambda: solve_conditions(self.system(entry)))

    def oracle(self, entry):
        s = self.spec(entry)
        return self._get(("oracle", entry), lambda: direct_solve(
            s.H, s.source, s.target, keq=self.orders(entry)[1]))

    def automorphisms(self, entry):
        s = self.spec(entry)
        return self._get(("aut", entry), lambda: infinitesimal_automorphisms(
            s.target, keq=self.orders(entry)[2]))

    def trivial(self, entry):
        return self.rigidity(entry).trivial

    def rigidity(self, entry):
        def make():
            s = self.spec(entry)
            validate_embedding(s.H, s.source, s.target)
            return decide_rigidity(s.H, s.target, self.pipeline(entry),
                                   aut_keq=self.orders(entry)[2])
        return self._get(("rigidity", entry), make)

    def genericity(self, entry):
        return self._get(("genericity", entry),
                         lambda: genericity_certificate(self.system(entry)))


@pytest.fixture(scope="session")
def cache():
    return ComputeCache()
