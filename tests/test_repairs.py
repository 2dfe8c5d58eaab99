from __future__ import annotations

from fractions import Fraction

import pytest

from causelab import (
    DomainError,
    Instance,
    actual_causes,
    c_repairs,
    c_repairs_from_most_responsible,
    causes_from_repairs,
    consistently_true,
    endogenous_s_repairs,
    fact,
    parse_denial_constraint,
    removal_sets_containing,
    responsibility_of,
    s_repairs,
    s_repairs_from_causes,
)
from causelab.budget import Meter
from causelab.checks import demo_instance
from causelab.model import witnesses
from causelab.oracles import causes_by_enumeration, s_repair_removals_by_enumeration

R21 = fact("R", "a2", "a1")
R33 = fact("R", "a3", "a3")
R14 = fact("R", "a1", "a4")
S1 = fact("S", "a1")
S2 = fact("S", "a2")
S3 = fact("S", "a3")

RS_SCHEMAS = demo_instance().schemas


def rs_instance(*endogenous) -> Instance:
    return Instance(RS_SCHEMAS, frozenset(endogenous))


DEMO_REMOVALS = frozenset(
    {
        frozenset({R21, R33}),
        frozenset({R21, S3}),
        frozenset({S1, R33}),
        frozenset({S1, S3}),
    }
)


def test_s_repairs_on_demo(d0, k0):
    assert s_repairs(d0, [k0]) == DEMO_REMOVALS


def test_s_repairs_of_consistent_instance(k0):
    inst = rs_instance(fact("R", "a", "b"))
    assert s_repairs(inst, [k0]) == frozenset({frozenset()})


def test_s_repairs_without_constraints(d0):
    assert s_repairs(d0, []) == frozenset({frozenset()})


def test_s_repairs_match_lattice_enumeration(d0, k0):
    assert s_repairs(d0, [k0]) == s_repair_removals_by_enumeration(d0, [k0])


def test_c_repairs_on_demo(d0, k0):
    assert c_repairs(d0, [k0]) == DEMO_REMOVALS


def test_c_repairs_pick_the_smallest_removal(k0):
    inst = Instance.infer(
        endogenous=[fact("R", "a", "b"), fact("R", "c", "b"), fact("S", "b")]
    )
    assert c_repairs(inst, [k0]) == frozenset({frozenset({fact("S", "b")})})


def test_pooled_constraints_use_joint_hitting_sets(d0, k0):
    from causelab.parsing import parse_denial_constraint

    extra = parse_denial_constraint(":- R(X, X).")
    found = s_repairs(d0, [k0, extra])
    # every removal now also kills the loop R(a3, a3)
    assert all(R33 in r for r in found)
    assert found == s_repair_removals_by_enumeration(d0, [k0, extra])


def test_removal_sets_containing_on_demo(d0, k0):
    assert removal_sets_containing(d0, k0, R21) == frozenset(
        {frozenset({R21, R33}), frozenset({R21, S3})}
    )
    assert removal_sets_containing(d0, k0, S2) == frozenset()


def test_removal_sets_must_stay_endogenous(d0, k0):
    shifted = Instance(d0.schemas, d0.endogenous - {S3}, frozenset({S3}))
    assert removal_sets_containing(shifted, k0, R21) == frozenset(
        {frozenset({R21, R33})}
    )
    with pytest.raises(DomainError):
        removal_sets_containing(shifted, k0, S3)


def test_causes_from_repairs_on_demo(d0, q0):
    via_repairs = causes_from_repairs(d0, q0)
    assert via_repairs.keys() == frozenset({R21, R33, S1, S3})
    assert all(responsibility_of(g) == Fraction(1, 2) for g in via_repairs.values())
    assert via_repairs == actual_causes(d0, q0)


def test_causes_from_repairs_on_consistent_instance(q0):
    inst = rs_instance(fact("R", "a", "b"))
    assert not causes_from_repairs(inst, q0)


def test_causes_from_repairs_with_unremovable_witness(d0, q0):
    # the witness {R(a3,a3), S(a3)} is fully exogenous here, so the query
    # can never be falsified and nothing is a cause; verified against the
    # definition-level enumeration
    inst = Instance(d0.schemas, d0.endogenous - {R33, S3}, frozenset({R33, S3}))
    oracle = causes_by_enumeration(inst, q0)
    assert not oracle
    assert causes_from_repairs(inst, q0) == oracle


def test_s_repairs_from_causes_on_demo(d0, k0):
    assert s_repairs_from_causes(d0, k0) == DEMO_REMOVALS


def test_s_repairs_from_causes_consistent(k0):
    inst = rs_instance(fact("R", "a", "b"))
    assert s_repairs_from_causes(inst, k0) == frozenset({frozenset()})


def test_s_repairs_from_causes_single_witness(k0):
    inst = Instance.infer(endogenous=[fact("R", "a", "b"), fact("S", "b")])
    assert s_repairs_from_causes(inst, k0) == frozenset(
        {frozenset({fact("R", "a", "b")}), frozenset({fact("S", "b")})}
    )


def test_c_repairs_from_most_responsible_on_demo(d0, k0):
    assert c_repairs_from_most_responsible(d0, k0) == DEMO_REMOVALS


def test_c_repairs_from_most_responsible_unique(k0):
    inst = Instance.infer(
        endogenous=[fact("R", "a", "b"), fact("R", "c", "b"), fact("S", "b")]
    )
    assert c_repairs_from_most_responsible(inst, k0) == frozenset(
        {frozenset({fact("S", "b")})}
    )


def test_c_repairs_from_most_responsible_consistent(k0):
    inst = rs_instance(fact("R", "a", "b"))
    assert c_repairs_from_most_responsible(inst, k0) == frozenset({frozenset()})


def test_c_repairs_from_most_responsible_on_six_ring():
    # Every edge of the ring is most responsible, and each also has
    # minimal contingency sets of size 3 from the S-repairs that remove
    # four edges; those must not rebuild into C-repairs.
    ring = Instance.infer(endogenous=[fact("N", str(i), str((i + 1) % 6)) for i in range(6)])
    constraint = parse_denial_constraint(":- N(X, Y), N(Y, Z).")
    direct = c_repairs(ring, [constraint])
    assert len(direct) == 2 and {len(r) for r in direct} == {3}
    assert c_repairs_from_most_responsible(ring, constraint) == direct


def test_consistently_true_on_demo(d0, k0):
    assert consistently_true(d0, k0, R14)
    assert not consistently_true(d0, k0, S1)


def test_consistently_true_on_consistent_instance(k0):
    inst = rs_instance(fact("R", "a", "b"))
    assert consistently_true(inst, k0, fact("R", "a", "b"))


def test_consistently_true_rejects_foreign_atom(d0, k0):
    with pytest.raises(DomainError):
        consistently_true(d0, k0, fact("S", "a9"))


def test_consistently_true_matches_repair_intersection(d0, k0):
    repairs = s_repairs(d0, [k0])
    for a in sorted(d0.facts):
        assert consistently_true(d0, k0, a) == all(a not in r for r in repairs)


def test_consistently_true_spends_only_the_witness_join():
    # ten disjoint violations give 1,024 S-repairs; the answer needs none
    chains = [(fact("R", f"a{i}", f"b{i}"), fact("R", f"b{i}", f"c{i}")) for i in range(10)]
    inst = rs_instance(*(f for chain in chains for f in chain))
    constraint = parse_denial_constraint(":- R(X, Y), R(Y, Z).")
    assert len(s_repairs(inst, [constraint])) == 1024
    with Meter() as join:
        witnesses(inst.facts, constraint)
    for a in chains[0]:
        with Meter() as cqa:
            assert not consistently_true(inst, constraint, a)
        assert cqa.used == join.used


def test_endogenous_repairs_when_everything_is_endogenous(d0, k0):
    assert endogenous_s_repairs(d0, [k0]) == DEMO_REMOVALS


def test_endogenous_repairs_with_nothing_removable(d0, k0):
    inst = Instance(d0.schemas, frozenset(), d0.facts)
    assert endogenous_s_repairs(inst, [k0]) == frozenset()


def test_endogenous_repairs_with_unhittable_witness(d0, k0):
    inst = Instance(d0.schemas, d0.endogenous - {S1, R21}, frozenset({S1, R21}))
    assert endogenous_s_repairs(inst, [k0]) == frozenset()


def test_every_c_repair_is_an_s_repair(d0, k0):
    s_found = s_repairs(d0, [k0])
    c_found = c_repairs(d0, [k0])
    assert c_found <= s_found
    assert len({len(r) for r in c_found}) == 1
