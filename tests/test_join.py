"""Differential tests of the indexed join engine against the nested-loop
oracle join, at 50-200 facts."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causelab import DatalogProgram, evaluate, rule
from causelab.budget import Meter
from causelab.model import (
    Atom,
    ConjunctiveQuery,
    Fact,
    FactIndex,
    Variable,
    atom,
    ground_atom,
    matches,
    valuations,
    witnesses,
)
from causelab.hitting import minimize_family
from causelab.oracles import naive_datalog_model, valuations_by_nested_loops

pytestmark = pytest.mark.differential

CONSTS = [f"c{i}" for i in range(10)]
# T is never generated as a fact, so atoms over it exercise a missing relation.
ARITIES = {"R": 2, "S": 1, "T": 2}


@st.composite
def fact_sets(draw):
    pool = [Fact("R", (x, y)) for x in CONSTS for y in CONSTS]
    pool += [Fact("S", (x,)) for x in CONSTS]
    return frozenset(draw(st.sets(st.sampled_from(pool), min_size=50, max_size=200)))


@st.composite
def queries(draw):
    terms = [Variable("X"), Variable("Y"), Variable("Z"), "c0", "c1"]
    atoms = []
    for _ in range(draw(st.integers(1, 3))):
        rel = draw(st.sampled_from(sorted(ARITIES)))
        atoms.append(Atom(rel, tuple(draw(st.sampled_from(terms)) for _ in range(ARITIES[rel]))))
    return ConjunctiveQuery(tuple(atoms))


def _key(valuation):
    return tuple(sorted((v.name, c) for v, c in valuation.items()))


@settings(max_examples=40)
@given(fact_sets(), queries())
def test_valuations_match_oracle_join(fs, q):
    fast = [_key(v) for v in valuations(fs, q)]
    assert len(fast) == len(set(fast))
    assert set(fast) == {_key(v) for v in valuations_by_nested_loops(fs, q.atoms)}


@settings(max_examples=40)
@given(fact_sets(), queries())
def test_witnesses_match_oracle_join(fs, q):
    images = (
        frozenset(ground_atom(a, v) for a in q.atoms)
        for v in valuations_by_nested_loops(fs, q.atoms)
    )
    assert witnesses(fs, q) == minimize_family(images)


@pytest.mark.parametrize(
    "q",
    [
        ConjunctiveQuery((atom("R", "X", "X"),)),
        ConjunctiveQuery((atom("R", "X", "Y"), atom("R", "Y", "X"), atom("S", "X"))),
        ConjunctiveQuery((atom("R", "X", "Y"), atom("R", "Y", "Z"), atom("R", "Z", "X"))),
        ConjunctiveQuery((atom("S", "X"), atom("T", "X", "Y"))),
        ConjunctiveQuery((atom("R", "c0", "X"), atom("R", "X", "c1"))),
    ],
    ids=["repeated-variable", "self-join", "triangle", "missing-relation", "constants"],
)
@settings(max_examples=15)
@given(fs=fact_sets())
def test_shaped_queries_match_oracle_join(fs, q):
    assert {_key(v) for v in valuations(fs, q)} == {
        _key(v) for v in valuations_by_nested_loops(fs, q.atoms)
    }


TC = DatalogProgram(
    (
        rule(atom("P", "X", "Y"), atom("E", "X", "Y")),
        rule(atom("P", "X", "Y"), atom("E", "X", "Z"), atom("P", "Z", "Y")),
    )
)
SAME_GENERATION = DatalogProgram(
    (
        rule(atom("SG", "X", "Y"), atom("Flat", "X", "Y")),
        rule(
            atom("SG", "X", "Y"), atom("Up", "X", "U"), atom("SG", "U", "V"), atom("Down", "V", "Y")
        ),
    )
)


@st.composite
def edge_sets(draw, relations):
    """Edges inside small components, so closures stay small enough for
    the naive oracle."""
    edges = st.tuples(
        st.sampled_from(relations), st.integers(0, 24), st.integers(0, 4), st.integers(0, 4)
    )
    drawn = draw(st.sets(edges, min_size=50, max_size=200))
    return frozenset(Fact(rel, (f"n{c}_{i}", f"n{c}_{j}")) for rel, c, i, j in drawn)


@settings(max_examples=20)
@given(edge_sets(["E"]))
def test_transitive_closure_matches_naive(fs):
    assert evaluate(TC, fs) == naive_datalog_model(TC, fs)


@settings(max_examples=20)
@given(edge_sets(["Up", "Flat", "Down"]))
def test_same_generation_matches_naive(fs):
    assert evaluate(SAME_GENERATION, fs) == naive_datalog_model(SAME_GENERATION, fs)


def test_non_matching_facts_cost_nothing():
    fs = [Fact("R", (f"b{i}", f"c{i}")) for i in range(1000)]
    fs += [Fact("S", (f"d{i}",)) for i in range(1000)]
    q = ConjunctiveQuery((atom("R", "a", "X"), atom("S", "X")))
    meter = Meter(1)
    assert list(matches(FactIndex(fs), q.atoms, meter)) == []
    assert meter.used == 0
    with Meter(1):
        assert witnesses(fs, q) == frozenset()
