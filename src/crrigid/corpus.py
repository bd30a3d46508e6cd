"""Bundled example problems and their expected outcomes.

An entry's solver orders, where they differ from the defaults, are
``option`` lines of its problem file."""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from typing import Dict, Optional, Tuple

from crrigid.parser import ProblemSpec, parse_problem


@dataclass
class Expectation:
    dim: Optional[int] = None            # expected dim hol_0(H)
    verdict: Optional[str] = None        # expected rigidity verdict
    trivial_dim: Optional[int] = None
    aut_dim: Optional[int] = None        # expected dim hol_0(M')
    degenerate: bool = False             # expect a degeneracy error
    aut_only: bool = False               # entry has no map


from crrigid.spaces import VERDICT_INCONCLUSIVE, VERDICT_RIGID_TRIVIAL, \
    VERDICT_RIGID_VANISHING

EXPECTATIONS: Dict[str, Expectation] = {
    "example-6-1": Expectation(dim=10, verdict=VERDICT_RIGID_TRIVIAL,
                               trivial_dim=10, aut_dim=10),
    "example-6-2": Expectation(dim=0, verdict=VERDICT_RIGID_VANISHING,
                               trivial_dim=0, aut_dim=0),
    "example-6-3": Expectation(dim=1, verdict=VERDICT_INCONCLUSIVE,
                               trivial_dim=0, aut_dim=0),
    "example-6-4": Expectation(dim=10, verdict=VERDICT_INCONCLUSIVE,
                               trivial_dim=0, aut_dim=0),
    "example-6-4-t2": Expectation(dim=10, verdict=VERDICT_INCONCLUSIVE,
                                  trivial_dim=0, aut_dim=0),
    "example-6-4-t0": Expectation(degenerate=True),
    # Literal solution space of the tangency equation: 10 restricted
    # target automorphisms + 4 independent source reparametrizations
    # + 8 further generators.
    "sphere-8": Expectation(dim=22, verdict=VERDICT_INCONCLUSIVE,
                            trivial_dim=10, aut_dim=10),
    "target-6-4": Expectation(aut_dim=1, aut_only=True),
}

CORPUS_IDS: Tuple[str, ...] = tuple(EXPECTATIONS)


def corpus_text(entry_id: str) -> str:
    if entry_id not in EXPECTATIONS:
        raise KeyError(f"unknown corpus entry {entry_id!r}; "
                       f"known: {', '.join(CORPUS_IDS)}")
    ref = resources.files("crrigid") / "corpus" / f"{entry_id}.crr"
    return ref.read_text(encoding="utf-8")


def load_corpus(entry_id: str, order: int = 24) -> ProblemSpec:
    return parse_problem(corpus_text(entry_id), order=order)
