from __future__ import annotations

from fractions import Fraction

import pytest

from causelab import (
    AbductionProblem,
    DiagnosisProblem,
    DomainError,
    Instance,
    Meter,
    RelationSchema,
    SchemaError,
    abductive_solutions,
    build_problem,
    datalog_actual_causes,
    datalog_responsibility,
    fact,
    necessary_sets,
    parse_program,
    parse_query,
    problem_for_instance,
    relevant_hypotheses,
    responsibility,
)
from causelab import datalog, oracles
from causelab.oracles import (
    LATTICE_CAP,
    causes_by_enumeration,
    datalog_causes_by_enumeration,
    diagnoses_by_enumeration,
    necessary_sets_by_enumeration,
    s_repair_removals_by_enumeration,
    solutions_by_enumeration,
)

R21 = fact("R", "a2", "a1")
R33 = fact("R", "a3", "a3")
S1 = fact("S", "a1")
S2 = fact("S", "a2")
S3 = fact("S", "a3")
EAB = fact("E", "a", "b")
EBC = fact("E", "b", "c")

DEMO_SOLUTIONS = frozenset({frozenset({S1, R21}), frozenset({S3, R33})})
DEMO_NECESSARY = frozenset(
    {
        frozenset({S1, S3}),
        frozenset({S1, R33}),
        frozenset({R21, S3}),
        frozenset({R21, R33}),
    }
)


def test_problem_rejects_unentailed_observations(prog0):
    with pytest.raises(DomainError):
        AbductionProblem(prog0, frozenset(), frozenset({S1}), frozenset({fact("ans")}))


def test_problem_rejects_head_predicates_in_facts(t0_prog):
    with pytest.raises(ValueError):
        AbductionProblem(
            t0_prog,
            frozenset({fact("T", "a", "b")}),
            frozenset({EAB, EBC}),
            frozenset({fact("ans")}),
        )


def test_problem_for_instance_splits_parts(d0, prog0):
    problem = problem_for_instance(prog0, d0)
    assert problem.edb == frozenset()
    assert problem.hyp == d0.endogenous
    assert problem.obs == frozenset({fact("ans")})


@pytest.mark.parametrize(
    "rules, message",
    [
        ("ans :- R(X, Y), Q(Y).", r"^query atom Q\(Y\) uses the undeclared relation 'Q'$"),
        ("ans :- R(X).", r"^query atom R\(X\) has arity 1, but 'R' is declared with arity 2$"),
        # a relation a rule head defines is the program's own, checked nowhere
        ("T(X) :- S(X).\nans :- T(X), Z(X).", r"^query atom Z\(X\) uses the undeclared relation 'Z'$"),
    ],
    ids=["undeclared", "wrong-arity", "beside-a-head"],
)
def test_problem_for_instance_checks_the_stored_relations(d0, rules, message):
    # before the problem is built: the observation is not entailed either
    with pytest.raises(SchemaError, match=message):
        problem_for_instance(parse_program(rules), d0)


def test_problem_for_instance_accepts_a_declared_relation_without_facts(d0, prog0):
    declared = Instance(d0.schemas | {RelationSchema("T", 1)}, d0.endogenous)
    problem = problem_for_instance(parse_program("ans :- R(X, Y), S(Y).\nans :- T(X)."), declared)
    assert abductive_solutions(problem) == abductive_solutions(problem_for_instance(prog0, d0))


@pytest.mark.parametrize(
    "observation, message",
    [
        (fact("anz"), r"^observation anz uses the undeclared relation 'anz'$"),
        (
            fact("R", "a1", "a4", "a5"),
            r"^observation R\(a1, a4, a5\) has arity 3, but 'R' is declared with arity 2$",
        ),
        (fact("ans", "a"), r"^observation ans\(a\) has arity 1, but 'ans' is declared with arity 0$"),
    ],
    ids=["undeclared", "wrong-arity", "head-at-wrong-arity"],
)
def test_problem_for_instance_checks_the_observations(d0, prog0, observation, message):
    # before the problem is built: the observation is not entailed either
    with pytest.raises(SchemaError, match=message):
        problem_for_instance(prog0, d0, [fact("ans"), observation])


def test_an_observation_may_match_a_declared_relation_or_any_arity_of_a_head(d0):
    program = parse_program("P(X) :- S(X).\nP(X, Y) :- R(X, Y).")
    r14 = fact("R", "a1", "a4")
    problem = problem_for_instance(program, d0, [r14, fact("P", "a1"), fact("P", "a1", "a4")])
    assert abductive_solutions(problem) == frozenset({frozenset({S1, r14})})


def test_solutions_on_demo(d0, prog0):
    assert abductive_solutions(problem_for_instance(prog0, d0)) == DEMO_SOLUTIONS


def test_solutions_match_enumeration(d0, prog0):
    problem = problem_for_instance(prog0, d0)
    assert abductive_solutions(problem) == solutions_by_enumeration(problem)


def test_background_entailment_gives_empty_solution(prog0, d0):
    # everything exogenous: the observation needs no hypotheses at all
    inst = Instance(d0.schemas, frozenset(), d0.facts)
    problem = problem_for_instance(prog0, inst)
    assert abductive_solutions(problem) == frozenset({frozenset()})
    assert relevant_hypotheses(problem) == frozenset()
    assert necessary_sets(problem) == frozenset()
    assert solutions_by_enumeration(problem) == frozenset({frozenset()})
    assert necessary_sets_by_enumeration(problem) == frozenset()


def test_solutions_on_closure_fixture(t0, t0_prog):
    problem = problem_for_instance(t0_prog, t0)
    assert abductive_solutions(problem) == frozenset({frozenset({EAB, EBC})})


def test_relevant_hypotheses_on_demo(d0, prog0):
    got = relevant_hypotheses(problem_for_instance(prog0, d0))
    assert got == frozenset({S1, R21, S3, R33})


def test_relevant_hypotheses_on_closure(t0, t0_prog):
    assert relevant_hypotheses(problem_for_instance(t0_prog, t0)) == frozenset(
        {EAB, EBC}
    )


def test_necessary_sets_on_demo(d0, prog0):
    got = necessary_sets(problem_for_instance(prog0, d0))
    assert got == DEMO_NECESSARY
    assert {len(n) for n in got} == {2}


def test_necessary_sets_on_closure(t0, t0_prog):
    got = necessary_sets(problem_for_instance(t0_prog, t0))
    assert got == frozenset({frozenset({EAB}), frozenset({EBC})})


def test_necessary_sets_match_enumeration(d0, prog0, t0, t0_prog):
    for problem in (
        problem_for_instance(prog0, d0),
        problem_for_instance(t0_prog, t0),
    ):
        assert necessary_sets(problem) == necessary_sets_by_enumeration(problem)


def test_datalog_causes_on_demo(d0, prog0):
    assert datalog_actual_causes(prog0, d0) == frozenset({S1, R21, S3, R33})


def test_datalog_causes_match_relevant_hypotheses(d0, prog0):
    assert datalog_actual_causes(prog0, d0) == relevant_hypotheses(
        problem_for_instance(prog0, d0)
    )


def test_datalog_causes_when_answer_underivable(prog0):
    inst = Instance.infer(endogenous=[S1, S2])
    assert datalog_actual_causes(prog0, inst) == frozenset()


def test_datalog_causes_on_closure(t0, t0_prog):
    assert datalog_actual_causes(t0_prog, t0) == frozenset({EAB, EBC})
    assert datalog_causes_by_enumeration(t0_prog, t0) == frozenset({EAB, EBC})


def test_datalog_cause_oracle(d0, prog0):
    assert datalog_causes_by_enumeration(prog0, d0) == datalog_actual_causes(prog0, d0)
    underivable = Instance.infer(endogenous=[S1, S2])
    assert datalog_causes_by_enumeration(prog0, underivable) == frozenset()
    oversized = Instance(d0.schemas, frozenset(fact("S", f"c{i}") for i in range(LATTICE_CAP + 1)))
    with pytest.raises(DomainError, match="^Datalog cause oracle is capped at"):
        datalog_causes_by_enumeration(prog0, oversized)


def test_datalog_responsibility_on_demo(d0, prog0):
    assert datalog_responsibility(prog0, d0, S1) == Fraction(1, 2)
    assert datalog_responsibility(prog0, d0, S2) == Fraction(0)


def test_datalog_responsibility_on_closure(t0, t0_prog):
    assert datalog_responsibility(t0_prog, t0, EAB) == Fraction(1)


def test_datalog_responsibility_rejects_foreign_tuple(d0, prog0):
    with pytest.raises(DomainError):
        datalog_responsibility(prog0, d0, fact("S", "a9"))


def test_datalog_responsibility_runs_one_fixpoint(d0, prog0, monkeypatch):
    calls = []
    seminaive = datalog._seminaive

    def counted(*args):
        calls.append(args)
        return seminaive(*args)

    monkeypatch.setattr(datalog, "_seminaive", counted)
    assert datalog_responsibility(prog0, d0, S1) == Fraction(1, 2)
    assert len(calls) == 1


def test_datalog_responsibility_with_head_predicate_among_facts(t0_prog):
    # T is a rule head; the canonical abduction problem would reject it.
    t_bc = fact("T", "b", "c")
    inst = Instance.infer(endogenous=[EAB, t_bc])
    assert datalog_actual_causes(t0_prog, inst) == frozenset({EAB, t_bc})
    assert datalog_responsibility(t0_prog, inst, t_bc) == Fraction(1)


def test_problem_construction_is_metered(prog0, d0, t0_prog, t0):
    # the demand fixpoint and the support fixpoint, whose passes follow
    # the derivation order; the units must not depend on the hash seed
    for program, instance, units in [(prog0, d0, 11), (t0_prog, t0, 29)]:
        with Meter() as m:
            problem_for_instance(program, instance)
        assert m.used == units


def test_datalog_responsibility_matches_query_route(d0, prog0, q0):
    for t in sorted(d0.endogenous):
        assert datalog_responsibility(prog0, d0, t) == responsibility(d0, q0, t)


def test_recursive_program_with_shortcut_edge(t0_prog):
    inst = Instance.infer(endogenous=[EAB, EBC, fact("E", "a", "c")])
    problem = problem_for_instance(t0_prog, inst)
    direct = frozenset({fact("E", "a", "c")})
    two_step = frozenset({EAB, EBC})
    assert abductive_solutions(problem) == frozenset({direct, two_step})
    # breaking every route needs the shortcut plus one chain edge
    assert necessary_sets(problem) == frozenset(
        {
            frozenset({fact("E", "a", "c"), EAB}),
            frozenset({fact("E", "a", "c"), EBC}),
        }
    )
    assert datalog_responsibility(t0_prog, inst, fact("E", "a", "c")) == Fraction(1, 2)
    assert datalog_actual_causes(t0_prog, inst) == inst.endogenous
    assert datalog_actual_causes(t0_prog, inst) == datalog_causes_by_enumeration(
        t0_prog, inst
    )


def test_exogenous_edges_do_not_appear_in_solutions(t0_prog):
    inst = Instance.infer(endogenous=[EBC], exogenous=[EAB])
    problem = problem_for_instance(t0_prog, inst)
    assert abductive_solutions(problem) == frozenset({frozenset({EBC})})
    assert datalog_actual_causes(t0_prog, inst) == frozenset({EBC})
    assert datalog_responsibility(t0_prog, inst, EBC) == Fraction(1)
    assert solutions_by_enumeration(problem) == abductive_solutions(problem)
    assert necessary_sets_by_enumeration(problem) == necessary_sets(problem)
    assert datalog_causes_by_enumeration(t0_prog, inst) == datalog_actual_causes(t0_prog, inst)


def _record(monkeypatch, name, calls):
    """Rebind ``oracles.<name>`` to record the fact set of each call."""
    real = getattr(oracles, name)

    def recorded(first, second):
        # naive_datalog_model(program, facts); the joins take (facts, atoms or query)
        calls.append(frozenset(second if name == "naive_datalog_model" else first))
        return real(first, second)

    monkeypatch.setattr(oracles, name, recorded)


def _evaluations(monkeypatch, call):
    """The joins and the naive fixpoints one oracle call runs, twice over:
    a second call must run exactly what the first did."""
    runs = []
    for _ in range(2):
        with monkeypatch.context() as m:
            joins, per_subset, fixpoints = [], [], []
            _record(m, "valuations_by_nested_loops", joins)
            _record(m, "holds_by_nested_loops", per_subset)
            _record(m, "naive_datalog_model", fixpoints)
            call()
        runs.append((joins, per_subset, fixpoints))
    assert runs[0] == runs[1]
    return runs[0]


def test_instance_oracles_run_one_join_per_query(d0, q0, k0, monkeypatch):
    # one nested-loop join on the whole instance per query or constraint,
    # and no per-subset evaluation; the lattice walk reads the join's images
    constraint = parse_query("q() :- R(X, X).")
    problem = build_problem(d0, q0)
    for call, queries in (
        (lambda: oracles.witnesses_by_enumeration(d0.facts, q0), 1),
        (lambda: causes_by_enumeration(d0, q0), 1),
        (lambda: diagnoses_by_enumeration(problem), 1),
        (lambda: s_repair_removals_by_enumeration(d0, [k0]), 1),
        (lambda: s_repair_removals_by_enumeration(d0, [k0, constraint]), 2),
    ):
        joins, per_subset, fixpoints = _evaluations(monkeypatch, call)
        assert joins == [d0.facts] * queries
        assert per_subset == [] and fixpoints == []


def test_datalog_oracles_run_one_fixpoint_per_subset(d0, prog0, t0_prog, monkeypatch):
    # every subset of the abducibles gets exactly one naive fixpoint, over
    # the background plus that subset, also when one lattice serves all three
    closure = Instance.infer(endogenous=[EBC, fact("E", "c", "a")], exogenous=[EAB])
    for program, instance in ((prog0, d0), (t0_prog, closure)):
        problem = problem_for_instance(program, instance)

        def shared():
            lattice = oracles.FixpointLattice(
                program, instance.exogenous, instance.endogenous, problem.obs
            )
            return lattice.causes(), lattice.solutions(), lattice.necessary_sets()

        every_subset = sorted(
            sorted(instance.exogenous | s) for s in oracles.subsets_of(instance.endogenous)
        )
        for call in (
            lambda: datalog_causes_by_enumeration(program, instance),
            lambda: solutions_by_enumeration(problem),
            lambda: necessary_sets_by_enumeration(problem),
            shared,
        ):
            _, per_subset, fixpoints = _evaluations(monkeypatch, call)
            assert sorted(map(sorted, fixpoints)) == every_subset
            assert per_subset == []


def test_oracles_check_each_query_schema_once(d0, q0, k0, monkeypatch):
    # the check runs before the subset walk, not once per subset
    checked = []
    check = oracles.check_query_schema

    def recorded(query, schemas):
        checked.append(query)
        return check(query, schemas)

    problem = build_problem(d0, q0)
    monkeypatch.setattr(oracles, "check_query_schema", recorded)
    for call, expected in (
        (lambda: causes_by_enumeration(d0, q0), [q0]),
        (lambda: diagnoses_by_enumeration(problem), [q0]),
        (lambda: s_repair_removals_by_enumeration(d0, [k0, q0]), [k0, q0]),
    ):
        checked.clear()
        call()
        assert checked == expected


def test_oracles_reject_an_undeclared_relation(d0, k0):
    bad = parse_query("q() :- Z(X).")
    undeclared = r"query atom Z\(X\) uses the undeclared relation 'Z'"
    for call in (
        lambda: causes_by_enumeration(d0, bad),
        # with no endogenous fact there is no subset to walk
        lambda: causes_by_enumeration(Instance(d0.schemas, exogenous=d0.facts), bad),
        lambda: diagnoses_by_enumeration(DiagnosisProblem(d0, bad, frozenset())),
        lambda: s_repair_removals_by_enumeration(d0, [k0, bad]),
    ):
        with pytest.raises(SchemaError, match=undeclared):
            call()
