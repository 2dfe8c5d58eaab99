"""Differential tests of the brute-force oracles, which walk each subset
lattice once on int masks, against the frozenset walks they replace.

Each reference below transcribes an oracle as it was written before: it
walks ``subsets_of``, evaluates every subset on its own with
``holds_by_nested_loops`` or ``naive_datalog_model``, and takes its
antichains with ``minimize_family`` and ``maximize_family``.  Seeded
instances of 0 to 12 facts (``LATTICE_CAP``), mixed, all-endogenous and
all-exogenous, meet queries with self-joins and constants, several
denial constraints at once, the query's one-rule program and the
recursive ``reach`` program; observations the background alone entails
and the caps are covered on their own."""
from __future__ import annotations

import random
from functools import cache
from types import SimpleNamespace
from typing import Callable, Iterator

import pytest

from causelab import (
    Atom,
    BudgetError,
    DiagnosisProblem,
    Instance,
    build_problem,
    fact,
    parse_denial_constraint,
    parse_program,
    parse_query,
    problem_for_instance,
)
from causelab import oracles
from causelab.checks import demo_instance
from causelab.datalog import DatalogProgram, DatalogRule
from causelab.hitting import maximize_family, minimize_family
from causelab.oracles import (
    ABDUCIBLE_CAP,
    HITTING_CAP,
    LATTICE_CAP,
    FixpointLattice,
    causes_by_enumeration,
    datalog_causes_by_enumeration,
    diagnoses_by_enumeration,
    holds_by_nested_loops,
    minimal_hitting_sets_by_enumeration,
    naive_datalog_model,
    necessary_sets_by_enumeration,
    s_repair_removals_by_enumeration,
    solutions_by_enumeration,
    subsets_of,
    witnesses_by_enumeration,
)

pytestmark = pytest.mark.differential


# ------------------------------------------------------------ references


def _ref_witnesses(facts, query):
    pool = frozenset(facts)
    return minimize_family(w for w in subsets_of(pool) if holds_by_nested_loops(w, query))


def _ref_contingency_sets(instance, t, holds) -> Iterator[frozenset]:
    full = instance.facts
    return (
        gamma
        for gamma in subsets_of(instance.endogenous - {t})
        if holds(full - gamma) and not holds(full - gamma - {t})
    )


def _ref_causes(instance, query):
    holds = cache(lambda fs: holds_by_nested_loops(fs, query))
    causes = {}
    for t in sorted(instance.endogenous):
        gammas = list(_ref_contingency_sets(instance, t, holds))
        if gammas:
            causes[t] = minimize_family(gammas)
    return causes


def _ref_s_repair_removals(instance, constraints):
    facts = instance.facts
    consistent = [
        kept
        for kept in subsets_of(facts)
        if not any(holds_by_nested_loops(kept, c) for c in constraints)
    ]
    return frozenset(facts - kept for kept in maximize_family(consistent))


def _ref_diagnoses(problem: DiagnosisProblem):
    falsifying = [
        delta
        for delta in subsets_of(problem.abnormal_scope)
        if not holds_by_nested_loops(problem.instance.facts - delta, problem.query)
    ]
    return minimize_family(falsifying)


def _ref_hitting_sets(family):
    sets = [frozenset(s) for s in family]
    universe = frozenset().union(*sets) if sets else frozenset()
    return minimize_family(h for h in subsets_of(universe) if all(h & s for s in sets))


def _ref_datalog_causes(program, instance):
    goal = program.answer_atom()
    derives = cache(lambda fs: goal in naive_datalog_model(program, fs))
    return frozenset(
        t
        for t in instance.endogenous
        if next(_ref_contingency_sets(instance, t, derives), None) is not None
    )


def _ref_solutions_and_necessary_sets(problem):
    # one memo for both walks, which changes no answer, only the test's time
    explains = cache(
        lambda delta: problem.obs <= naive_datalog_model(problem.program, problem.edb | delta)
    )
    solutions = minimize_family(d for d in subsets_of(problem.hyp) if explains(d))
    necessary = minimize_family(
        n for n in subsets_of(problem.hyp) if not explains(problem.hyp - n)
    )
    return solutions, necessary


# ----------------------------------------------------------------- cases

SCHEMAS = demo_instance().schemas  # R/2 and S/1

QUERIES = [
    "q() :- R(X, Y), S(Y).",
    "q() :- R(X, Y), R(Y, Z).",  # self-join
    "q() :- R(X, X).",  # repeated variable
    "q() :- R(X, Y), R(Y, X).",  # self-join on a cycle
    "q() :- R(a, X), S(X).",  # constant
    "q() :- S(b).",  # ground
    "q() :- R(X, Y), S(X), S(Y).",
]

CONSTRAINT_SETS = [
    [":- R(X, Y), S(Y).", ":- R(X, X)."],
    [":- R(X, Y), R(Y, Z).", ":- S(a).", ":- R(b, X), S(X)."],
    [":- R(X, Y), R(Y, X)."],
]

REACH = parse_program(
    "reach(X, Y) :- R(X, Y).\nreach(X, Y) :- R(X, Z), reach(Z, Y).\nans() :- reach(X, X)."
)


def _instance(seed: int, size: int, part: str) -> Instance:
    rng = random.Random(seed)
    consts = "abcde"[: rng.randint(2, 5)]
    possible = [fact("R", x, y) for x in consts for y in consts] + [fact("S", x) for x in consts]
    facts = rng.sample(possible, min(size, len(possible)))
    if part == "endogenous":
        return Instance(SCHEMAS, frozenset(facts))
    if part == "exogenous":
        return Instance(SCHEMAS, exogenous=frozenset(facts))
    cut = rng.randint(0, len(facts))
    return Instance(SCHEMAS, frozenset(facts[:cut]), frozenset(facts[cut:]))


CASES = [
    (seed, size, part)
    for size in range(LATTICE_CAP + 1)
    for seed, part in enumerate(["mixed", "endogenous", "exogenous", "mixed"], start=size * 4)
]


def test_cases_cover_every_size_and_both_answers():
    sizes = {len(_instance(*case).facts) for case in CASES}
    assert sizes == set(range(LATTICE_CAP + 1))
    holds = {
        holds_by_nested_loops(_instance(*case).facts, parse_query(QUERIES[case[0] % len(QUERIES)]))
        for case in CASES
    }
    assert holds == {True, False}


@pytest.mark.parametrize("seed, size, part", CASES, ids=[f"{p}{n}-{s}" for s, n, p in CASES])
def test_instance_oracles_match_the_frozenset_walks(seed, size, part):
    instance = _instance(seed, size, part)
    query = parse_query(QUERIES[seed % len(QUERIES)])
    assert witnesses_by_enumeration(instance.facts, query) == _ref_witnesses(instance.facts, query)
    causes = causes_by_enumeration(instance, query)
    assert causes == _ref_causes(instance, query)
    assert list(causes) == sorted(causes)
    problem = build_problem(instance, query)
    assert diagnoses_by_enumeration(problem) == _ref_diagnoses(problem)
    texts = CONSTRAINT_SETS[seed % len(CONSTRAINT_SETS)]
    constraints = [parse_denial_constraint(c) for c in texts]
    for cs in (constraints, constraints[:1], []):
        assert s_repair_removals_by_enumeration(instance, cs) == _ref_s_repair_removals(
            instance, cs
        )


@pytest.mark.parametrize("seed, size, part", CASES, ids=[f"{p}{n}-{s}" for s, n, p in CASES])
def test_datalog_oracles_match_the_frozenset_walks(seed, size, part):
    instance = _instance(seed, size, part)
    query = parse_query(QUERIES[seed % len(QUERIES)])
    one_rule = DatalogProgram((DatalogRule(Atom("ans", ()), query.atoms),))
    for program in (one_rule, REACH):
        goal = frozenset({program.answer_atom()})
        lattice = FixpointLattice(program, instance.exogenous, instance.endogenous, goal)
        reference = SimpleNamespace(
            program=program, edb=instance.exogenous, hyp=instance.endogenous, obs=goal
        )
        causes = _ref_datalog_causes(program, instance)
        solutions, necessary = _ref_solutions_and_necessary_sets(reference)
        # one lattice read by all three, as the harness reads it
        assert (lattice.causes(), lattice.solutions(), lattice.necessary_sets()) == (
            causes,
            solutions,
            necessary,
        )
        # the public oracles build a lattice each; an entailed answer gives
        # the abduction ones a problem
        if len(instance.endogenous) <= 8:
            assert datalog_causes_by_enumeration(program, instance) == causes
        if solutions and len(instance.endogenous) <= 8:
            problem = problem_for_instance(program, instance)
            assert solutions_by_enumeration(problem) == solutions
            assert necessary_sets_by_enumeration(problem) == necessary


def test_observations_the_background_entails():
    # the background alone derives the answer: the single empty solution,
    # and no set of abducibles is necessary
    background = [fact("R", "a", "b"), fact("R", "b", "a")]
    abducibles = [fact("R", "b", "c"), fact("S", "a"), fact("R", "c", "c")]
    instance = Instance(SCHEMAS, frozenset(abducibles), frozenset(background))
    problem = problem_for_instance(REACH, instance)
    assert _ref_solutions_and_necessary_sets(problem) == ({frozenset()}, frozenset())
    assert solutions_by_enumeration(problem) == {frozenset()}
    assert necessary_sets_by_enumeration(problem) == frozenset()
    # no removal loses the answer, so no abducible is a cause
    assert datalog_causes_by_enumeration(REACH, instance) == frozenset()
    assert _ref_datalog_causes(REACH, instance) == frozenset()


@pytest.mark.parametrize("seed", range(30))
def test_hitting_set_oracle_matches_the_frozenset_walk(seed):
    rng = random.Random(seed)
    n = rng.randint(0, 10)
    family = [set(rng.sample(range(n), rng.randint(0, n))) for _ in range(rng.randint(0, 6))]
    if seed % 5 == 0:
        family = [s for s in family if s]  # most families hold no empty member
    assert minimal_hitting_sets_by_enumeration(family) == _ref_hitting_sets(family)


def _no_evaluation(*args):
    raise AssertionError("an oracle over its cap evaluated a subset")


def _calls_over_the_caps() -> list[tuple[str, Callable[[], object]]]:
    big = Instance(
        SCHEMAS, frozenset(fact("R", "a", f"c{i}") for i in range(LATTICE_CAP + 1))
    )
    query = parse_query("q() :- R(X, Y).")
    abducibles = Instance.infer(fact("S", f"c{i}") for i in range(ABDUCIBLE_CAP + 1))
    wide = problem_for_instance(parse_program("ans() :- S(X)."), abducibles)
    datalog_big = parse_program("ans() :- R(X, Y).")
    return [
        ("witness", lambda: witnesses_by_enumeration(big.facts, query)),
        ("cause", lambda: causes_by_enumeration(big, query)),
        ("repair", lambda: s_repair_removals_by_enumeration(big, [query])),
        ("diagnosis", lambda: diagnoses_by_enumeration(DiagnosisProblem(big, query, frozenset()))),
        ("Datalog cause", lambda: datalog_causes_by_enumeration(datalog_big, big)),
        ("solution", lambda: solutions_by_enumeration(wide)),
        ("necessary set", lambda: necessary_sets_by_enumeration(wide)),
        ("hitting set", lambda: minimal_hitting_sets_by_enumeration([range(HITTING_CAP + 1)])),
    ]


CAPPED = _calls_over_the_caps()


@pytest.mark.parametrize("what, call", CAPPED, ids=[what for what, _ in CAPPED])
def test_caps_raise_before_any_evaluation(what, call, monkeypatch):
    monkeypatch.setattr(oracles, "valuations_by_nested_loops", _no_evaluation)
    monkeypatch.setattr(oracles, "naive_datalog_model", _no_evaluation)
    with pytest.raises(BudgetError, match=f"^{what} oracle is capped at"):
        call()
