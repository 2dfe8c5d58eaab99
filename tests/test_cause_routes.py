"""Differential tests of the three cause routes against the enumeration
oracle, on seeded instances with 9-12 endogenous facts: larger than the
7-fact acceptance corpus, still under the oracle's lattice cap."""
from __future__ import annotations

import random

import pytest

from causelab import (
    Instance,
    actual_causes,
    build_problem,
    causes_from_repairs,
    causes_via_diagnosis,
    fact,
    responsibility,
    responsibility_of,
)
from causelab.checks import demo_instance
from causelab.model import Atom, ConjunctiveQuery, Variable
from causelab.oracles import LATTICE_CAP, causes_by_enumeration

pytestmark = pytest.mark.differential

CONSTS = ["a", "b", "c", "d"]
TERMS = [Variable("X"), Variable("Y"), Variable("Z"), "a"]


def _case(seed: int) -> tuple[Instance, ConjunctiveQuery]:
    rng = random.Random(seed)
    pool = [fact("R", x, y) for x in CONSTS for y in CONSTS] + [fact("S", x) for x in CONSTS]
    n = rng.randint(9, 12)
    chosen = rng.sample(pool, n + rng.randint(0, 2))
    endogenous, exogenous = chosen[:n], chosen[n:]
    atoms = []
    for _ in range(rng.randint(1, 3)):
        relation, arity = rng.choice([("R", 2), ("R", 2), ("S", 1)])
        atoms.append(Atom(relation, tuple(rng.choice(TERMS) for _ in range(arity))))
    instance = Instance(demo_instance().schemas, frozenset(endogenous), frozenset(exogenous))
    return instance, ConjunctiveQuery(tuple(atoms))


CASES = [_case(seed) for seed in range(30)]


def test_cases_are_beyond_the_acceptance_corpus():
    sizes = [len(instance.endogenous) for instance, _ in CASES]
    assert min(sizes) >= 9 and max(sizes) <= LATTICE_CAP
    assert any(len(q.atoms) == 3 for _, q in CASES)
    self_joins = [q for _, q in CASES if len({a.relation for a in q.atoms}) < len(q.atoms)]
    assert len(self_joins) >= 3
    cause_sets = [actual_causes(*case) for case in CASES]
    assert sum(map(bool, cause_sets)) >= len(CASES) // 2
    assert any(len(g) > 1 for c in cause_sets for gammas in c.values() for g in gammas)


@pytest.mark.parametrize("instance, query", CASES, ids=[f"seed{i}" for i in range(len(CASES))])
def test_cause_routes_match_the_oracle(instance, query):
    oracle = causes_by_enumeration(instance, query)
    assert actual_causes(instance, query) == oracle
    assert causes_from_repairs(instance, query) == oracle
    assert causes_via_diagnosis(build_problem(instance, query)) == oracle
    for t in sorted(instance.endogenous):
        assert responsibility(instance, query, t) == responsibility_of(oracle.get(t, ()))
