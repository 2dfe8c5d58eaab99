"""Acceptance criteria, one test per criterion.

Every check is exact-value or property-based at desk scale.  Run with
``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line per
criterion; the shared corpus is 200 seeded random instances of at most
7 facts with queries of at most 3 atoms.
"""
from __future__ import annotations

import json
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from causelab import actual_causes, fact, responsibility_of
from causelab.abduction import (
    abductive_solutions,
    datalog_actual_causes,
    datalog_responsibility,
    necessary_sets,
    problem_for_instance,
)
from causelab.checks import (
    closure_instance,
    closure_program,
    demo_instance,
    demo_program,
    demo_query,
)
from causelab.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"


@contextmanager
def gate(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}", flush=True)
        raise
    print(f"ACCEPTANCE {number} PASS: {description}", flush=True)


def require(reports, *property_ids):
    for pid in property_ids:
        report = reports[pid]
        assert report.instances >= 200, f"{pid}: corpus too small ({report.instances})"
        assert report.passed, f"{pid}: {len(report.failures)} failures, first: " + (
            report.failures[0][:600] if report.failures else ""
        )


def test_criterion_1_demo_exact_reproduction():
    with gate(1, "demo fixture reproduced exactly (zero tolerance)"):
        instance = demo_instance()
        problem = problem_for_instance(demo_program(), instance)

        expected_solutions = frozenset(
            {
                frozenset({fact("S", "a1"), fact("R", "a2", "a1")}),
                frozenset({fact("S", "a3"), fact("R", "a3", "a3")}),
            }
        )
        assert abductive_solutions(problem) == expected_solutions

        causes = actual_causes(instance, demo_query())
        assert causes.keys() == frozenset(
            {fact("S", "a1"), fact("R", "a2", "a1"), fact("S", "a3"), fact("R", "a3", "a3")}
        )
        assert all(responsibility_of(g) == Fraction(1, 2) for g in causes.values())

        necessary = necessary_sets(problem)
        assert len(necessary) == 4
        assert {len(n) for n in necessary} == {2}


def test_criterion_2_causes_equal_repair_route(corpus_reports):
    with gate(2, "causes computed from repairs agree, including responsibilities"):
        require(
            corpus_reports,
            "repairs.causes-from-repairs-agree",
            "causality.causes-match-enumeration",
        )


def test_criterion_3_repairs_rebuilt_from_causes(corpus_reports):
    with gate(3, "s- and c-repairs rebuilt from causes equal the direct ones"):
        require(
            corpus_reports,
            "repairs.s-repairs-rebuilt-from-causes",
            "repairs.c-repairs-rebuilt-from-top-causes",
        )


def test_criterion_4_consistent_answers(corpus_reports):
    with gate(4, "consistent answers match membership in every s-repair"):
        require(corpus_reports, "repairs.cqa-matches-repair-intersection")


def test_criterion_5_diagnosis_route(corpus_reports):
    with gate(5, "causes via diagnosis agree, with matching responsibilities"):
        require(corpus_reports, "diagnosis.causes-agree")


def test_criterion_6_abduction_route(corpus_reports):
    with gate(6, "relevant hypotheses equal program causes; responsibilities match"):
        require(
            corpus_reports,
            "datalog.relevant-equal-causes",
            "datalog.responsibility-matches-bcq",
        )
        instance = closure_instance()
        program = closure_program()
        eab, ebc = fact("E", "a", "b"), fact("E", "b", "c")
        assert datalog_actual_causes(program, instance) == frozenset({eab, ebc})
        assert datalog_responsibility(program, instance, eab) == Fraction(1)
        assert datalog_responsibility(program, instance, ebc) == Fraction(1)
        solutions = abductive_solutions(problem_for_instance(program, instance))
        assert solutions == frozenset({frozenset({eab, ebc})})


def test_criterion_7_monotonicity(corpus_reports):
    with gate(
        7,
        "inserting an endogenous tuple never shrinks the causes, "
        "relabelling a tuple exogenous never grows them",
    ):
        require(
            corpus_reports,
            "causality.endogenous-insertion-monotone",
            "causality.exogenous-insertion-antimonotone",
        )


def test_criterion_8_oracle_equivalences(corpus_reports):
    with gate(8, "all optimized engines match their brute-force oracles"):
        require(
            corpus_reports,
            "core.witnesses-match-enumeration",
            "repairs.removals-match-enumeration",
            "datalog.seminaive-matches-naive",
            "datalog.solutions-match-enumeration",
            "datalog.necessary-sets-match-enumeration",
            "diagnosis.matches-enumeration",
        )


@pytest.mark.parametrize(
    "golden, argv",
    [
        ("causes.json", ["causes", "-i", "d0.json", "-q", "q0.dl"]),
        (
            "responsibility.json",
            ["responsibility", "-i", "d0.json", "-q", "q0.dl", "--tuple", "S(a1)"],
        ),
        ("repairs_s.json", ["repairs", "-i", "d0.json", "-c", "k0.dl", "--semantics", "s"]),
        ("repairs_c.json", ["repairs", "-i", "d0.json", "-c", "k0.dl", "--semantics", "c"]),
        ("cqa.json", ["cqa", "-i", "d0.json", "-c", "k0.dl", "--atom", "R(a1, a4)"]),
        ("diagnose.json", ["diagnose", "-i", "d0.json", "-q", "q0.dl"]),
        ("abduce.json", ["abduce", "-i", "d0.json", "-p", "prog0.dl"]),
        (
            "repairs_s_endo.json",
            ["repairs", "-i", "d0.json", "-c", "k0.dl", "--endogenous-only"],
        ),
        (
            "repairs_s.txt",
            ["repairs", "-i", "d0.json", "-c", "k0.dl", "--endogenous-only", "--format", "table"],
        ),
        ("check.json", ["check", "--seed", "1"]),
        # the same requests as tables, which iterate the payload's families
        ("causes.txt", ["causes", "-i", "d0.json", "-q", "q0.dl", "--format", "table"]),
        (
            "responsibility.txt",
            ["responsibility", "-i", "d0.json", "-q", "q0.dl", "--tuple", "S(a1)",
             "--format", "table"],
        ),
        (
            "repairs_s_all.txt",
            ["repairs", "-i", "d0.json", "-c", "k0.dl", "--semantics", "s", "--format", "table"],
        ),
        (
            "repairs_c.txt",
            ["repairs", "-i", "d0.json", "-c", "k0.dl", "--semantics", "c", "--format", "table"],
        ),
        ("cqa.txt", ["cqa", "-i", "d0.json", "-c", "k0.dl", "--atom", "R(a1, a4)", "--format", "table"]),
        ("diagnose.txt", ["diagnose", "-i", "d0.json", "-q", "q0.dl", "--format", "table"]),
        ("abduce.txt", ["abduce", "-i", "d0.json", "-p", "prog0.dl", "--format", "table"]),
        ("check.txt", ["check", "--seed", "1", "--format", "table"]),
    ],
)
def test_criterion_9_determinism(golden, argv, data_dir, monkeypatch, capsys):
    with gate(9, f"byte-identical output across runs and routes ({golden})"):
        monkeypatch.chdir(data_dir)
        assert main(list(argv)) == 0
        first = capsys.readouterr().out
        assert main(list(argv)) == 0
        second = capsys.readouterr().out
        assert first == second
        assert first == (GOLDEN / golden).read_text()


def test_criterion_9_route_agreement(data_dir, monkeypatch, capsys):
    with gate(9, "cause serialization is byte-identical across the three routes"):
        from causelab.checks import fixture_checks

        report = {r.property_id: r for r in fixture_checks()}["fixtures.demo-route-agreement"]
        assert report.passed, report.failures
        # and the golden cause list equals what the repair and diagnosis
        # routes serialize to
        monkeypatch.chdir(data_dir)
        golden_causes = json.loads((GOLDEN / "causes.json").read_text())["causes"]
        from causelab.diagnosis import build_problem, causes_via_diagnosis
        from causelab.repairs import causes_from_repairs
        from causelab.serialize import cause_set_to_list, dumps

        def written(causes):
            return json.loads(dumps(cause_set_to_list(causes)))

        instance, query = demo_instance(), demo_query()
        assert written(causes_from_repairs(instance, query)) == golden_causes
        assert written(causes_via_diagnosis(build_problem(instance, query))) == golden_causes
