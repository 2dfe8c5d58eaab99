from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from causelab import (
    Atom,
    ConjunctiveQuery,
    Fact,
    Instance,
    RelationSchema,
    SchemaError,
    Variable,
    atom,
    eval_bcq,
    fact,
    parse_denial_constraint,
    parse_query,
    satisfies_dc,
    witnesses,
)
from causelab.oracles import valuations_by_nested_loops, witnesses_by_enumeration


def facts(*specs: str) -> frozenset[Fact]:
    out = set()
    for spec in specs:
        name, _, rest = spec.partition("(")
        args = tuple(a.strip() for a in rest.rstrip(")").split(",")) if rest else ()
        out.add(Fact(name, args))
    return frozenset(out)


# ---------------------------------------------------------------- basics


def test_schema_requires_positive_arity():
    with pytest.raises(ValueError):
        RelationSchema("R", 0)


def test_fact_ordering_is_canonical():
    fs = [fact("S", "a1"), fact("R", "a2", "a1"), fact("R", "a1", "a4")]
    assert sorted(fs) == [fact("R", "a1", "a4"), fact("R", "a2", "a1"), fact("S", "a1")]


def test_atom_helper_applies_naming_convention():
    a = atom("R", "X", "a1")
    assert a.terms == (Variable("X"), "a1")
    assert str(a) == "R(X, a1)"


def test_query_needs_atoms():
    with pytest.raises(ValueError):
        ConjunctiveQuery(())


def test_instance_rejects_overlap():
    schemas = frozenset({RelationSchema("R", 1)})
    with pytest.raises(ValueError):
        Instance(schemas, frozenset({fact("R", "a")}), frozenset({fact("R", "a")}))


def test_instance_rejects_undeclared_relation():
    schemas = frozenset({RelationSchema("R", 1)})
    with pytest.raises(SchemaError):
        Instance(schemas, frozenset({fact("S", "a")}), frozenset())


def test_instance_rejects_arity_mismatch():
    schemas = frozenset({RelationSchema("R", 2)})
    with pytest.raises(SchemaError):
        Instance(schemas, frozenset({fact("R", "a")}), frozenset())


def test_infer_builds_schemas_from_facts():
    inst = Instance.infer(endogenous=[fact("R", "a", "b")], exogenous=[fact("S", "a")])
    assert inst.schemas == frozenset({RelationSchema("R", 2), RelationSchema("S", 1)})
    assert inst.facts == facts("R(a,b)", "S(a)")


# ------------------------------------------------------------- evaluation


@pytest.fixture
def d0_facts(d0):
    return d0.facts


def test_eval_on_demo_instance(d0_facts, q0):
    assert eval_bcq(d0_facts, q0)


def test_eval_on_empty_set(q0):
    assert not eval_bcq(frozenset(), q0)


def test_eval_after_removing_join_tuples(d0_facts, q0):
    # removing both R tuples that join with S leaves no valuation
    remaining = d0_facts - facts("R(a2,a1)", "R(a3,a3)")
    assert not eval_bcq(remaining, q0)


def test_eval_schema_check(q0):
    with pytest.raises(SchemaError):
        eval_bcq(frozenset(), q0, frozenset({RelationSchema("R", 2)}))
    with pytest.raises(SchemaError):
        eval_bcq(
            frozenset(),
            q0,
            frozenset({RelationSchema("R", 1), RelationSchema("S", 1)}),
        )


def test_witnesses_on_demo_instance(d0_facts, q0):
    assert witnesses(d0_facts, q0) == frozenset(
        {facts("R(a2,a1)", "S(a1)"), facts("R(a3,a3)", "S(a3)")}
    )


def test_witnesses_empty_instance(q0):
    assert witnesses(frozenset(), q0) == frozenset()


def test_witnesses_single_valuation(q0):
    assert witnesses(facts("R(a,a)", "S(a)"), q0) == frozenset({facts("R(a,a)", "S(a)")})


def test_witness_images_are_minimized():
    # a valuation image that strictly contains another is dropped
    q = ConjunctiveQuery((atom("R", "X", "Y"), atom("R", "X", "X")))
    got = witnesses(facts("R(a,a)", "R(a,b)"), q)
    assert got == frozenset({facts("R(a,a)")})


# ---------------------------------------------------- denial constraints


def test_denial_constraint_is_its_query():
    # the constraint forbidding a pattern is the query of that pattern
    assert parse_denial_constraint(":- R(X, Y), S(Y).") == parse_query("q() :- R(X, Y), S(Y).")


def test_satisfies_dc_examples(d0_facts, q0, k0):
    assert not satisfies_dc(d0_facts, k0)
    assert satisfies_dc(frozenset(), k0)
    assert satisfies_dc(d0_facts - facts("S(a1)", "S(a3)"), k0)


# --------------------------------------------------------------- property

_rels = [RelationSchema("R", 2), RelationSchema("S", 1)]


@st.composite
def small_fact_sets(draw):
    consts = ["a", "b", "c"]
    pool = [Fact("R", (x, y)) for x in consts for y in consts] + [
        Fact("S", (x,)) for x in consts
    ]
    return frozenset(draw(st.sets(st.sampled_from(pool), max_size=6)))


@st.composite
def small_queries(draw):
    terms = [Variable("X"), Variable("Y"), "a", "b"]
    n = draw(st.integers(1, 3))
    atoms = []
    for _ in range(n):
        schema = draw(st.sampled_from(_rels))
        atoms.append(
            Atom(schema.name, tuple(draw(st.sampled_from(terms)) for _ in range(schema.arity)))
        )
    return ConjunctiveQuery(tuple(atoms))


@given(small_fact_sets(), small_queries())
def test_witnesses_match_subset_enumeration(fs, q):
    assert witnesses(fs, q) == witnesses_by_enumeration(fs, q)


@given(small_fact_sets(), small_fact_sets(), small_queries())
def test_eval_is_monotone(fs1, fs2, q):
    if eval_bcq(fs1 & fs2, q):
        assert eval_bcq(fs1, q) and eval_bcq(fs2, q)


@given(small_fact_sets(), small_queries())
def test_eval_iff_witnesses(fs, q):
    assert eval_bcq(fs, q) == bool(witnesses(fs, q))


@given(small_fact_sets(), small_queries())
def test_constraint_duality(fs, q):
    # against the nested-loop join, which shares no code with satisfies_dc
    violated = next(valuations_by_nested_loops(fs, q.atoms), None) is not None
    assert satisfies_dc(fs, q) != violated
