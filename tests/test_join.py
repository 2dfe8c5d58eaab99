"""Differential tests of the indexed join engine against the nested-loop
oracle join, at 50-200 facts and on bodies of 50-300 atoms, and of the
join plan against its ordering rule."""
from __future__ import annotations

import random

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
    _plan,
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


def _plan_order_by_rescans(atoms, first):
    """The plan's rule restated: ``first`` leads, then the atom with the
    most bound terms, earliest on ties, rescanning every pending atom."""
    bound, pending, order = set(), list(range(len(atoms))), []
    while pending:
        if first is not None and not order:
            k = first
        else:
            k = max(
                pending,
                key=lambda i: (sum(not isinstance(t, Variable) or t in bound for t in atoms[i].terms), -i),
            )
        pending.remove(k)
        order.append(k)
        bound |= atoms[k].variables()
    return order


@pytest.mark.parametrize("seed", range(5))
def test_plan_order_matches_the_rescanning_rule(seed):
    rng = random.Random(seed)
    terms = [Variable("X"), Variable("Y"), Variable("Z"), Variable("W"), "c0", "c1"]
    arities = {"R": 2, "S": 1, "T": 3}
    for _ in range(200):
        atoms = []
        for _ in range(rng.randint(1, 8)):
            if atoms and rng.random() < 0.15:
                atoms.append(rng.choice(atoms))  # a duplicate atom
                continue
            rel = rng.choice(sorted(arities))
            atoms.append(Atom(rel, tuple(rng.choice(terms) for _ in range(arities[rel]))))
        atoms = tuple(atoms)
        for first in [None, *range(len(atoms))]:
            steps, _ = _plan(atoms, first)
            assert [step[0] for step in steps] == _plan_order_by_rescans(atoms, first)


def _long_walk(rng):
    """A path c0 -> c1 -> ... with three two-edge detours, ten dead ends
    and S on the path's nodes, and a walk query from c0: 40-290 R atoms
    with one constant inside, then five S atoms and five duplicated atoms.
    Each extra atom follows the R atom that binds its variables, so the
    oracle, which joins in body order, never takes a cross product."""
    n = rng.randint(40, 290)
    fs = {Fact("R", (f"c{i}", f"c{i + 1}")) for i in range(n + 5)}
    for i in rng.sample(range(n), 3):
        fs |= {Fact("R", (f"c{i}", f"d{i}")), Fact("R", (f"d{i}", f"c{i + 2}"))}
    fs |= {Fact("R", (f"c{i}", f"e{i}")) for i in rng.sample(range(n), 10)}
    fs |= {Fact("S", (f"c{i}",)) for i in range(n + 6)}
    walk = ["c0", *(Variable(f"X{i}") for i in range(1, n + 1))]
    pinned = rng.randrange(1, n + 1)
    walk[pinned] = f"c{pinned}"
    steps = [[Atom("R", (walk[i], walk[i + 1]))] for i in range(n)]
    for i in rng.sample(range(n), 5):
        steps[i].append(Atom("S", (walk[i + 1],)))
    for i in rng.sample(range(n), 5):
        steps[rng.randrange(i, n)].append(steps[i][0])
    return frozenset(fs), ConjunctiveQuery(tuple(a for step in steps for a in step))


@pytest.mark.parametrize("seed", range(6))
def test_long_bodies_match_oracle_join(seed):
    # the oracle recurses once per atom, so the bodies stay below 300 atoms
    fs, q = _long_walk(random.Random(seed))
    expected = {_key(v) for v in valuations_by_nested_loops(fs, q.atoms)}
    found = []
    for ordered in (sorted(fs), sorted(fs, reverse=True)):
        with Meter() as meter:
            fast = [_key(v) for v in valuations(ordered, q)]
        assert len(fast) == len(set(fast))
        assert set(fast) == expected
        found.append((len(fast), meter.used))
    # the candidates charged do not depend on the order the facts come in
    assert found[0] == found[1]
