from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

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
from causelab.model import check_query_schema
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
    # the order of the constants themselves, not of the facts' text, which
    # puts the quoted constants "a b" and "it's" first
    quoted = [fact("R", "it's"), fact("R", "b"), fact("R", "a b"), fact("R", "a")]
    assert sorted(quoted) == [fact("R", "a"), fact("R", "a b"), fact("R", "b"), fact("R", "it's")]


# a relation name is checked where it enters, not when it is first printed
NOT_NAMES = pytest.mark.parametrize("name", ["", 5, b"R"])


@pytest.mark.parametrize(
    "relation, args", [("", ()), (5, ("a",)), (b"R", ("a",)), ("R", (1,)), ("R", ("a", None))]
)
def test_fact_rejects_bad_fields(relation, args):
    with pytest.raises(ValueError):
        Fact(relation, args)


@NOT_NAMES
def test_schema_rejects_a_name_that_is_no_nonempty_string(name):
    with pytest.raises(ValueError, match="^relation name must be nonempty$"):
        RelationSchema(name, 1)


@NOT_NAMES
def test_atom_rejects_a_relation_that_is_no_nonempty_string(name):
    with pytest.raises(ValueError, match="^an atom needs a relation name$"):
        Atom(name, ())


def test_fact_is_its_relation_args_tuple():
    f = Fact("R", ["a"])
    assert f.args == ("a",) and f.arity == 1
    assert hash(f) == hash((f.relation, f.args))
    assert f == ("R", ("a",)) and Fact("ans") == ("ans", ())
    assert repr(f) == "Fact(relation='R', args=('a',))"
    assert str(f) == "R(a)" and str(fact("R", "it's")) == 'R("it\'s")'


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


def test_instance_keeps_its_fact_set():
    inst = Instance.infer(endogenous=[fact("R", "a", "b")], exogenous=[fact("S", "a")])
    assert inst.facts is inst.facts
    assert inst.facts == facts("R(a,b)", "S(a)")
    everything = inst.all_endogenous()
    assert (everything.endogenous, everything.exogenous) == (inst.facts, frozenset())
    assert everything.facts == inst.facts
    grown = Instance(inst.schemas, inst.endogenous | {fact("S", "b")}, inst.exogenous)
    assert grown.facts == facts("R(a,b)", "S(a)", "S(b)")
    assert grown.endogenous == facts("R(a,b)", "S(b)")
    # the kept set takes no part in equality, hashing or the repr
    same = Instance(inst.schemas, inst.endogenous, inst.exogenous)
    assert same == inst and hash(same) == hash(inst) and "facts" not in repr(inst)


def test_infer_names_the_smallest_relation_used_with_two_arities():
    # the error does not depend on the order in which the sets iterate
    used = facts("Q(a)", "Q(a,b)", "P(a,b,c)", "P(a)", "P(a,b)", "Z(a)", "Z(a,b)")
    with pytest.raises(SchemaError, match=r"^relation 'P' is used with arities 1 and 2$"):
        Instance.infer(endogenous=used)


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


def test_query_schema_check(q0):
    with pytest.raises(SchemaError):
        check_query_schema(q0, frozenset({RelationSchema("R", 2)}))
    with pytest.raises(SchemaError):
        check_query_schema(q0, frozenset({RelationSchema("R", 1), RelationSchema("S", 1)}))


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


REIMPORT = """
import gc, importlib, sys, weakref

def fresh():
    for name in [m for m in sys.modules if m == "causelab" or m.startswith("causelab.")]:
        del sys.modules[name]
    return importlib.import_module("causelab.cli")

cli = fresh()
cli.main(["check", "--trials", "0"])
model, errors = sys.modules["causelab.model"], sys.modules["causelab.errors"]
refs = {c.__name__: weakref.ref(c) for c in (model.Fact, model.Variable, errors.BudgetError)}
del cli, model, errors
fresh()
gc.collect()
print(sorted(name for name, ref in refs.items() if ref() is not None))
"""


def test_reimport_frees_the_previous_classes():
    # a subscripted typing alias such as Mapping[Fact, ...] or
    # Union[Variable, str] sits in typing's cache and keeps the classes of
    # the previous import alive
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", REIMPORT], capture_output=True, env=env, check=True, text=True
    )
    assert proc.stdout.splitlines()[-1] == "[]"
