"""Differential tests of the consistent-answer route against the repair
and cause routes, on seeded instances of 20-60 facts with mixed
endogenous and exogenous parts, and against the repair oracle on
instances small enough for its lattice walk."""
from __future__ import annotations

import random

import pytest

from causelab import (
    Instance,
    actual_causes,
    consistently_true,
    fact,
    parse_denial_constraint,
    s_repairs,
)
from causelab.checks import demo_instance
from causelab.oracles import LATTICE_CAP, s_repair_removals_by_enumeration

pytestmark = pytest.mark.differential

CONSTRAINTS = [
    ":- R(X, Y), R(Y, Z).",
    ":- R(X, Y), S(Y).",
    ":- R(X, Y), S(X), S(Y).",
    ":- R(X, X).",
    ":- R(X, Y), R(Y, X), S(X).",
]


#: The shapes whose witnesses need a repeated constant.
CYCLIC = {":- R(X, X).", ":- R(X, Y), R(Y, X), S(X)."}


def _case(seed: int, low: int, high: int) -> tuple[Instance, str]:
    rng = random.Random(seed)
    n = rng.randint(low, high)
    text = CONSTRAINTS[seed % len(CONSTRAINTS)]
    # one constant per fact keeps the conflicts sparse enough for the
    # repair enumeration at 60 facts; the cyclic shapes take one constant
    # per four facts (at least 3, so that n distinct facts exist), which
    # gives most of their instances a witness
    consts = [f"c{i}" for i in range(max(3, n // 4) if text in CYCLIC else n)]
    chosen: set = set()
    while len(chosen) < n:
        if rng.random() < 0.6:
            chosen.add(fact("R", rng.choice(consts), rng.choice(consts)))
        else:
            chosen.add(fact("S", rng.choice(consts)))
    facts = sorted(chosen)
    rng.shuffle(facts)
    cut = rng.randint(0, n)
    instance = Instance(demo_instance().schemas, frozenset(facts[:cut]), frozenset(facts[cut:]))
    return instance, text


CASES = [_case(seed, 20, 60) for seed in range(40)]
CASES += [_case(seed, 8, LATTICE_CAP) for seed in range(40, 60)]


def test_cases_cover_sizes_partitions_and_constraints():
    sizes = [len(instance.facts) for instance, _ in CASES]
    assert min(sizes) >= 8 and max(sizes) <= 60
    assert sum(size >= 20 for size in sizes) == 40
    assert sum(bool(i.endogenous) and bool(i.exogenous) for i, _ in CASES) >= len(CASES) // 2
    assert {text for _, text in CASES} == set(CONSTRAINTS)
    # every constraint yields both answers somewhere
    answers = {
        (text, consistently_true(instance, parse_denial_constraint(text), a))
        for instance, text in CASES
        for a in instance.facts
    }
    assert answers == {(text, value) for text in CONSTRAINTS for value in (True, False)}


@pytest.mark.parametrize("instance, text", CASES, ids=[f"seed{i}" for i in range(len(CASES))])
def test_consistent_answers_match_repairs_and_causes(instance, text):
    constraint = parse_denial_constraint(text)
    removals = s_repairs(instance, [constraint])
    causes = actual_causes(instance.all_endogenous(), constraint)
    for a in sorted(instance.facts):
        answer = consistently_true(instance, constraint, a)
        assert answer == all(a not in r for r in removals)
        assert answer == (a not in causes)
    if len(instance.facts) <= LATTICE_CAP:
        assert removals == s_repair_removals_by_enumeration(instance, [constraint])
