from __future__ import annotations

import json
from fractions import Fraction

import pytest

from causelab import (
    DomainError,
    Instance,
    actual_causes,
    build_problem,
    datalog_responsibility,
    diagnoses_containing,
    fact,
    is_counterfactual_cause,
    minimal_contingency_sets,
    most_responsible_causes,
    removal_sets_containing,
    responsibility,
    responsibility_of,
    smallest_diagnoses_containing,
)
from causelab.causality import cause_set_from_hitting_sets
from causelab.checks import closure_instance, demo_instance
from causelab.model import ConjunctiveQuery, atom
from causelab.oracles import LATTICE_CAP, causes_by_enumeration
from causelab.serialize import cause_set_to_list, dumps, fact_to_list

R21 = fact("R", "a2", "a1")
R33 = fact("R", "a3", "a3")
R14 = fact("R", "a1", "a4")
S1 = fact("S", "a1")
S2 = fact("S", "a2")
S3 = fact("S", "a3")

RS_SCHEMAS = demo_instance().schemas


def rs_instance(*endogenous) -> Instance:
    """An all-endogenous instance with the R/2 and S/1 schemas declared."""
    return Instance(RS_SCHEMAS, frozenset(endogenous))


def test_counterfactual_cause_needs_single_witness(d0, q0):
    # the other witness survives the removal
    assert not is_counterfactual_cause(d0, q0, R21)


def test_counterfactual_cause_single_witness(q0):
    inst = Instance.infer(endogenous=[fact("R", "a", "b"), fact("S", "b")])
    assert is_counterfactual_cause(inst, q0, fact("R", "a", "b"))


def test_non_witness_tuple_is_not_counterfactual(d0, q0):
    assert not is_counterfactual_cause(d0, q0, S2)


def test_counterfactual_rejects_exogenous(q0):
    inst = Instance.infer(endogenous=[fact("S", "b")], exogenous=[fact("R", "a", "b")])
    with pytest.raises(DomainError):
        is_counterfactual_cause(inst, q0, fact("R", "a", "b"))
    with pytest.raises(DomainError):
        is_counterfactual_cause(inst, q0, fact("S", "zzz"))


def test_actual_causes_on_demo_instance(d0, q0):
    causes = actual_causes(d0, q0)
    assert causes.keys() == frozenset({R21, R33, S1, S3})
    assert all(responsibility_of(g) == Fraction(1, 2) for g in causes.values())


def test_all_exogenous_instance_has_no_causes(d0, q0):
    inst = Instance(d0.schemas, frozenset(), d0.facts)
    assert not actual_causes(inst, q0)


def test_single_witness_chain_query():
    # both edge facts are counterfactual causes for the two-step pattern
    inst = closure_instance()
    q = ConjunctiveQuery((atom("E", "X", "Y"), atom("E", "Y", "Z")))
    causes = actual_causes(inst, q)
    assert causes.keys() == inst.endogenous
    assert all(responsibility_of(g) == Fraction(1) for g in causes.values())


def test_minimal_contingency_sets_on_demo(d0, q0):
    assert minimal_contingency_sets(d0, q0, R21) == frozenset(
        {frozenset({R33}), frozenset({S3})}
    )
    assert minimal_contingency_sets(d0, q0, S2) == frozenset()


def test_counterfactual_cause_has_empty_contingency(q0):
    inst = Instance.infer(endogenous=[fact("R", "a", "b"), fact("S", "b")])
    assert minimal_contingency_sets(inst, q0, fact("R", "a", "b")) == frozenset(
        {frozenset()}
    )


def test_responsibility_values(d0, q0):
    assert responsibility(d0, q0, S1) == Fraction(1, 2)
    assert responsibility(d0, q0, R14) == Fraction(0)
    inst = Instance.infer(endogenous=[fact("R", "a", "b"), fact("S", "b")])
    assert responsibility(inst, q0, fact("S", "b")) == Fraction(1)


def test_responsibility_rejects_non_endogenous(d0, q0):
    with pytest.raises(DomainError):
        responsibility(d0, q0, fact("S", "a9"))


def test_most_responsible_on_demo(d0, q0):
    assert most_responsible_causes(d0, q0) == frozenset({R21, R33, S1, S3})


def test_most_responsible_on_consistent_instance(q0):
    inst = rs_instance(fact("R", "a", "b"))
    assert most_responsible_causes(inst, q0) == frozenset()


def test_most_responsible_prefers_unique_witness(q0):
    inst = Instance.infer(
        endogenous=[fact("R", "a", "b"), fact("S", "b"), fact("R", "c", "d")]
    )
    assert most_responsible_causes(inst, q0) == frozenset(
        {fact("R", "a", "b"), fact("S", "b")}
    )


def test_engines_agree_on_demo(d0, q0):
    oracle = causes_by_enumeration(d0, q0)
    for t in sorted(d0.endogenous):
        assert minimal_contingency_sets(d0, q0, t) == oracle.get(t, frozenset())


def test_actual_causes_match_oracle(d0, q0):
    assert actual_causes(d0, q0) == causes_by_enumeration(d0, q0)


def test_cause_oracle_cap(q0):
    # refused before the lattice walk, so the oversized case costs nothing
    inst = rs_instance(*(fact("S", f"c{i}") for i in range(LATTICE_CAP + 1)))
    with pytest.raises(DomainError, match="^cause oracle is capped at"):
        causes_by_enumeration(inst, q0)


def test_monotonicity_when_endogenous_tuple_is_added(d0, q0):
    before = actual_causes(d0, q0).keys()
    grown = Instance(d0.schemas, d0.endogenous | {fact("S", "a4")}, d0.exogenous)
    after = actual_causes(grown, q0).keys()
    assert before <= after


def test_antimonotonicity_when_exogenous_tuple_is_added(q0):
    inst = Instance.infer(endogenous=[fact("R", "a", "b"), fact("S", "b")])
    before = actual_causes(inst, q0).keys()
    grown = Instance(inst.schemas, inst.endogenous, inst.exogenous | {fact("R", "z", "b")})
    after = actual_causes(grown, q0).keys()
    assert after <= before
    # R(a,b) is lost: the exogenous witness keeps the query true without it,
    # while S(b) stays counterfactual because it appears in every witness
    assert after == frozenset({fact("S", "b")})


def test_exogenous_insertion_can_create_a_cause(q0):
    inst = rs_instance(fact("R", "a", "b"))
    assert not actual_causes(inst, q0)
    grown = Instance(inst.schemas, inst.endogenous, frozenset({fact("S", "b")}))
    # the exogenous S(b) completes the only witness, whose one endogenous
    # tuple then becomes a counterfactual cause
    assert responsibility_of(actual_causes(grown, q0)[fact("R", "a", "b")]) == Fraction(1)


def test_relabelling_a_tuple_exogenous_never_adds_causes(d0, q0):
    before = actual_causes(d0, q0).keys()
    for t in sorted(d0.endogenous):
        relabelled = Instance(d0.schemas, d0.endogenous - {t}, d0.exogenous | {t})
        assert actual_causes(relabelled, q0).keys() <= before - {t}


def test_responsibility_of_smallest_contingency():
    assert responsibility_of(frozenset({frozenset()})) == Fraction(1)
    assert responsibility_of(frozenset({frozenset({R33, R21}), frozenset({S3})})) == Fraction(1, 2)
    assert responsibility_of(frozenset()) == Fraction(0)


def test_cause_set_lookup_helpers(d0, q0):
    causes = actual_causes(d0, q0)
    assert S1 in causes
    assert R14 not in causes
    assert causes.get(R14) is None
    assert causes[S1] == frozenset({frozenset({R33}), frozenset({S3})})
    serialized = [entry["tuple"] for entry in json.loads(dumps(cause_set_to_list(causes)))]
    assert serialized == [fact_to_list(t) for t in sorted(causes)]


def test_cause_set_is_read_only(d0, q0):
    causes = actual_causes(d0, q0)
    with pytest.raises(TypeError):
        causes[S1] = frozenset()
    with pytest.raises(TypeError):
        del causes[S1]


# every route that takes one tuple t, as route(instance, query, program, t)
PER_TUPLE_ROUTES = {
    "responsibility": lambda i, q, p, t: responsibility(i, q, t),
    "minimal_contingency_sets": lambda i, q, p, t: minimal_contingency_sets(i, q, t),
    "is_counterfactual_cause": lambda i, q, p, t: is_counterfactual_cause(i, q, t),
    "removal_sets_containing": lambda i, q, p, t: removal_sets_containing(i, q, t),
    "diagnoses_containing": lambda i, q, p, t: diagnoses_containing(build_problem(i, q), t),
    "smallest_diagnoses_containing": lambda i, q, p, t: smallest_diagnoses_containing(
        build_problem(i, q), t
    ),
    "datalog_responsibility": lambda i, q, p, t: datalog_responsibility(p, i, t),
}


@pytest.mark.parametrize("route", PER_TUPLE_ROUTES)
@pytest.mark.parametrize(
    "t, message",
    [
        (S1, "S(a1) is exogenous; only endogenous tuples can be causes"),
        (fact("S", "a9"), "S(a9) is not in the instance"),
    ],
    ids=["exogenous", "absent"],
)
def test_per_tuple_routes_share_the_endogenous_check(d0, q0, prog0, route, t, message):
    instance = Instance(d0.schemas, d0.endogenous - {S1}, frozenset({S1}))
    with pytest.raises(DomainError) as raised:
        PER_TUPLE_ROUTES[route](instance, q0, prog0, t)
    assert str(raised.value) == message


class _CountingSet(frozenset):
    """A hitting set that counts the contingency sets built from it."""

    built = 0

    def __sub__(self, other):
        _CountingSet.built += 1
        return frozenset.__sub__(self, other)


def test_cause_set_builds_contingency_sets_only_when_read(monkeypatch):
    monkeypatch.setattr(_CountingSet, "built", 0)
    sets = [_CountingSet({R21, R33}), _CountingSet({R21, S3}), _CountingSet({S1, S3})]
    causes = cause_set_from_hitting_sets(sets)
    assert len(causes) == 4 and sorted(causes) == sorted([R21, R33, S1, S3])
    assert R21 in causes and S2 not in causes and "not a fact" not in causes
    # a report prints every cause from the sets and reads no value
    text = dumps(cause_set_to_list(causes))
    assert _CountingSet.built == 0
    assert json.loads(text)[0]["min_contingencies"] == [[["R", "a3", "a3"]], [["S", "a3"]]]
    assert causes[R21] == {frozenset({R33}), frozenset({S3})}
    assert _CountingSet.built == 2
    # a value is built once
    assert causes[R21] is causes[R21] and causes.get(R21) is causes[R21]
    assert _CountingSet.built == 2
    with pytest.raises(KeyError):
        causes[S2]
    assert causes.get(S2) is None and _CountingSet.built == 2


def test_cause_set_equals_its_dict_both_ways(d0, q0):
    causes = actual_causes(d0, q0)
    materialized = {t: causes[t] for t in causes}
    assert causes == materialized and materialized == causes
    assert causes == cause_set_from_hitting_sets(list(causes.hitting_sets))
    assert dict(causes.items()) == materialized
    other = dict(materialized)
    other[R21] = frozenset({frozenset()})
    assert causes != other and other != causes
    assert causes != {t: g for t, g in materialized.items() if t != R21}


def test_cause_set_cannot_be_assigned_to(d0, q0):
    causes = actual_causes(d0, q0)
    with pytest.raises(TypeError):
        causes[R21] = frozenset()
    with pytest.raises(TypeError):
        del causes[R21]
    with pytest.raises(AttributeError):
        causes.update({})
    assert R21 in causes
