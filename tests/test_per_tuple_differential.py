"""Differential tests of the per-tuple routes, which ask the hitting-set
search for the sets containing one tuple, against the whole-family
routes filtered on that tuple, on seeded instances of 20-60 facts with
mixed endogenous and exogenous parts and five self-join shapes."""
from __future__ import annotations

import random

import pytest

from causelab import (
    Instance,
    actual_causes,
    build_problem,
    datalog_actual_causes,
    datalog_responsibility,
    diagnoses_containing,
    minimal_contingency_sets,
    minimal_diagnoses,
    parse_program,
    parse_query,
    removal_sets_containing,
    responsibility,
    s_repairs,
)
from causelab import abduction, datalog, hitting
from causelab.causality import cause_set_from_hitting_sets
from causelab.datalog import minimal_supports
from causelab.hitting import minimal_hitting_sets

from test_cqa_differential import CONSTRAINTS, _case

pytestmark = pytest.mark.differential

SEEDS = range(100, 160)


def _mostly_endogenous_case(seed: int):
    """The consistent-answer differential's instance for ``seed``, with
    about 15% of the facts exogenous: an even split leaves a wholly
    exogenous witness, and so no cause at all, in most instances."""
    instance, text = _case(seed, 20, 60)
    rng = random.Random(seed)
    exogenous = frozenset(f for f in sorted(instance.facts) if rng.random() < 0.15)
    return Instance(instance.schemas, instance.facts - exogenous, exogenous), text


CASES = [_mostly_endogenous_case(seed) for seed in SEEDS]
IDS = [f"seed{seed}" for seed in SEEDS]


def _query_and_program(body: str):
    """The boolean query and the one-rule Datalog program over ``body``,
    a denial constraint's text."""
    body = body.removeprefix(":-").strip()
    return parse_query(f"q() :- {body}"), parse_program(f"ans :- {body}")


def test_cases_cover_sizes_partitions_and_shapes():
    sizes = [len(instance.facts) for instance, _ in CASES]
    assert min(sizes) >= 20 and max(sizes) <= 60
    assert sum(bool(i.endogenous) and bool(i.exogenous) for i, _ in CASES) >= len(CASES) // 2
    assert {text for _, text in CASES} == set(CONSTRAINTS)
    # causes and non-causes among the endogenous tuples, and instances
    # where a wholly exogenous witness leaves no cause at all
    kinds = set()
    for instance, text in CASES:
        query, _ = _query_and_program(text)
        causes = actual_causes(instance, query)
        kinds |= {t in causes for t in instance.endogenous}
        if frozenset() in build_problem(instance, query).parts:
            kinds.add("exogenous witness")
    assert kinds == {True, False, "exogenous witness"}


@pytest.mark.parametrize("instance, text", CASES, ids=IDS)
def test_per_tuple_routes_match_filtered_families(instance, text):
    query, program = _query_and_program(text)
    causes = actual_causes(instance, query)
    problem = build_problem(instance, query)
    diagnoses = minimal_diagnoses(problem)
    removals = s_repairs(instance, [query])
    for t in sorted(instance.endogenous):
        assert minimal_contingency_sets(instance, query, t) == causes.get(t, frozenset())
        assert diagnoses_containing(problem, t) == frozenset(d for d in diagnoses if t in d)
        assert removal_sets_containing(instance, query, t) == frozenset(
            r for r in removals if t in r and r <= instance.endogenous
        )
        assert datalog_responsibility(program, instance, t) == responsibility(instance, query, t)


@pytest.mark.parametrize("instance, text", CASES, ids=IDS)
def test_datalog_causes_match_the_hitting_set_cause_set(instance, text, monkeypatch):
    query, program = _query_and_program(text)
    supports = minimal_supports(program, instance.facts, {program.answer_atom()})
    full = cause_set_from_hitting_sets(
        minimal_hitting_sets({s & instance.endogenous for s in supports})
    )
    assert frozenset(full) == frozenset(actual_causes(instance, query))

    fixpoints = []
    seminaive = datalog._seminaive

    def counted(*args):
        fixpoints.append(args)
        return seminaive(*args)

    def no_search(*args, **kwargs):
        raise AssertionError("datalog_actual_causes ran a hitting-set search")

    monkeypatch.setattr(datalog, "_seminaive", counted)
    monkeypatch.setattr(hitting, "minimal_hitting_sets", no_search)
    monkeypatch.setattr(abduction, "minimal_hitting_sets", no_search)
    assert datalog_actual_causes(program, instance) == frozenset(full)
    assert len(fixpoints) == 1
