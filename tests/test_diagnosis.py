from __future__ import annotations

from fractions import Fraction

import pytest

from causelab import (
    DomainError,
    Instance,
    actual_causes,
    build_problem,
    causes_via_diagnosis,
    diagnoses_containing,
    fact,
    minimal_diagnoses,
    responsibility_of,
    s_repairs,
    smallest_diagnoses_containing,
)
from causelab.model import ConjunctiveQuery, atom
from causelab.checks import demo_instance
from causelab.oracles import diagnoses_by_enumeration

RS_SCHEMAS = demo_instance().schemas


def rs_instance(*endogenous) -> Instance:
    return Instance(RS_SCHEMAS, frozenset(endogenous))


R21 = fact("R", "a2", "a1")
R33 = fact("R", "a3", "a3")
R14 = fact("R", "a1", "a4")
S1 = fact("S", "a1")
S2 = fact("S", "a2")
S3 = fact("S", "a3")


def test_build_problem_scope(d0, q0):
    problem = build_problem(d0, q0)
    assert problem.abnormal_scope == d0.endogenous
    assert len(problem.abnormal_scope) == 6
    assert not problem.vacuous


def test_build_problem_flags_vacuous(q0):
    inst = rs_instance(fact("R", "a", "b"))
    assert build_problem(inst, q0).vacuous


def test_scope_excludes_exogenous(d0, q0):
    shifted = Instance(
        d0.schemas,
        d0.endogenous - {S1, S2, S3},
        frozenset({S1, S2, S3}),
    )
    problem = build_problem(shifted, q0)
    assert problem.abnormal_scope == frozenset({R14, R21, R33})


def test_minimal_diagnoses_on_demo(d0, q0):
    got = minimal_diagnoses(build_problem(d0, q0))
    assert got == frozenset(
        {
            frozenset({R21, R33}),
            frozenset({R21, S3}),
            frozenset({S1, R33}),
            frozenset({S1, S3}),
        }
    )


def test_vacuous_problem_has_the_empty_diagnosis(q0):
    inst = rs_instance(fact("R", "a", "b"))
    got = minimal_diagnoses(build_problem(inst, q0))
    assert got == frozenset({frozenset()})


def test_no_diagnosis_when_a_witness_is_exogenous(d0, q0):
    inst = Instance(
        d0.schemas,
        frozenset({R14, S2}),
        frozenset({R21, S1, R33, S3}),
    )
    problem = build_problem(inst, q0)
    # the wholly exogenous witness leaves an empty part: the query holds
    assert frozenset() in problem.parts and not problem.vacuous
    assert minimal_diagnoses(problem) == frozenset()


def test_diagnoses_match_enumeration(d0, q0):
    problem = build_problem(d0, q0)
    assert minimal_diagnoses(problem) == diagnoses_by_enumeration(problem)


def test_diagnoses_containing_on_demo(d0, q0):
    problem = build_problem(d0, q0)
    assert len(diagnoses_containing(problem, R21)) == 2
    assert diagnoses_containing(problem, S2) == frozenset()
    assert diagnoses_containing(problem, R14) == frozenset()


def test_diagnoses_containing_rejects_foreign_tuple(d0, q0):
    problem = build_problem(d0, q0)
    with pytest.raises(DomainError):
        diagnoses_containing(problem, fact("S", "a9"))


def test_smallest_diagnoses_containing(d0, q0):
    problem = build_problem(d0, q0)
    smallest = smallest_diagnoses_containing(problem, S1)
    assert len(smallest) == 2
    assert all(len(d) == 2 and S1 in d for d in smallest)
    assert smallest_diagnoses_containing(problem, S2) == frozenset()


def test_smallest_diagnosis_of_counterfactual_cause(q0):
    inst = Instance.infer(endogenous=[fact("R", "a", "b"), fact("S", "b")])
    problem = build_problem(inst, q0)
    got = smallest_diagnoses_containing(problem, fact("R", "a", "b"))
    assert got == frozenset({frozenset({fact("R", "a", "b")})})


def test_causes_via_diagnosis_on_demo(d0, q0):
    via = causes_via_diagnosis(build_problem(d0, q0))
    assert via.keys() == frozenset({R21, R33, S1, S3})
    assert all(responsibility_of(g) == Fraction(1, 2) for g in via.values())
    assert via == actual_causes(d0, q0)


def test_causes_via_diagnosis_vacuous(q0):
    inst = rs_instance(fact("R", "a", "b"))
    assert not causes_via_diagnosis(build_problem(inst, q0))


def test_causes_via_diagnosis_for_chain_query():
    inst = Instance.infer(endogenous=[fact("E", "a", "b"), fact("E", "b", "c")])
    q = ConjunctiveQuery((atom("E", "X", "Y"), atom("E", "Y", "Z")))
    via = causes_via_diagnosis(build_problem(inst, q))
    assert via.keys() == inst.endogenous
    assert all(responsibility_of(g) == Fraction(1) for g in via.values())


def test_diagnoses_are_endogenous_repair_removals(d0, q0, k0):
    diagnoses = minimal_diagnoses(build_problem(d0, q0))
    removals = frozenset(r for r in s_repairs(d0, [k0]) if r <= d0.endogenous)
    assert diagnoses == removals
