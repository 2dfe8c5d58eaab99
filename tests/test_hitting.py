from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from causelab.budget import Meter
from causelab.causality import actual_causes, endogenous_parts
from causelab.checks import demo_instance, demo_query
from causelab.errors import BudgetError
from causelab.oracles import minimal_hitting_sets_by_enumeration, subsets_of
from causelab import hitting
from causelab.hitting import (
    maximize_family,
    min_hitting_size,
    minimal_hitting_sets,
    minimize_family,
    smallest_hitting_sets,
    smallest_set_elements,
)
from causelab.model import Instance, fact, witnesses
from causelab.parsing import parse_denial_constraint, parse_query
from causelab.repairs import c_repairs
from causelab.causality import responsibility


def fsets(*groups):
    return frozenset(frozenset(g) for g in groups)


def _component_count(family) -> int:
    """The components of a family without the empty set: one per
    essential element, and one per searched part."""
    essential, parts = hitting._numbered(frozenset(map(frozenset, family)))
    return len(essential) + len(parts)


def test_minimize_drops_supersets():
    assert minimize_family([{1, 2}, {1}, {2, 3}]) == fsets({1}, {2, 3})


def test_maximize_drops_subsets():
    assert maximize_family([{1, 2}, {1}, {2, 3}]) == fsets({1, 2}, {2, 3})


def test_subsets_are_size_ordered():
    got = list(subsets_of([2, 1]))
    assert got == [frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2})]


def test_hitting_empty_family_is_empty_set():
    with Meter() as meter:
        assert minimal_hitting_sets([]) == fsets(())
    assert meter.used == 0


def test_hitting_with_empty_member_is_impossible():
    with Meter() as meter:
        assert minimal_hitting_sets([{1}, set()]) == frozenset()
    assert meter.used == 0


def test_hitting_basic():
    assert minimal_hitting_sets([{1, 2}, {1, 3}]) == fsets({1}, {2, 3})


def test_hitting_disjoint_sets():
    assert minimal_hitting_sets([{1}, {2}]) == fsets({1, 2})


def test_hitting_budget_is_enforced():
    family = [{i, i + 10} for i in range(8)]
    with pytest.raises(BudgetError), Meter(5):
        minimal_hitting_sets(family)


@given(
    st.lists(
        st.sets(st.integers(0, 6), min_size=0, max_size=4),
        max_size=6,
    )
)
@example([])
@example([{1, 2}, set()])
def test_hitting_matches_lattice_enumeration(family):
    full = minimal_hitting_sets(family)
    assert full == minimal_hitting_sets_by_enumeration(family)
    # a forced element gets exactly the sets that contain it; 7 is in no member
    for x in sorted(set().union(*family)) + [7]:
        assert minimal_hitting_sets(family, forced=x) == frozenset(h for h in full if x in h)


@given(
    st.lists(
        st.sets(st.integers(0, 6), min_size=1, max_size=4),
        min_size=1,
        max_size=6,
    )
)
def test_hitting_sets_hit_and_are_minimal(family):
    sets = [frozenset(s) for s in family]
    for h in minimal_hitting_sets(sets):
        assert all(h & s for s in sets)
        for e in h:
            assert not all((h - {e}) & s for s in sets)


def _charged(family) -> int:
    with Meter() as meter:
        minimal_hitting_sets(family)
    return meter.used


def test_hitting_search_charges_are_pinned():
    # the node counts pin the search order: a different pivot or branch
    # order would in general visit a different number of nodes; ten
    # disjoint pairs are ten components of 3 nodes each, then 2^10 product
    # sets
    assert _charged([{2 * i, 2 * i + 1} for i in range(10)]) == 10 * 3 + 1024
    # the demo's two witness parts share no fact: two components of one
    # pair each, and 4 product sets
    instance = demo_instance()
    parts = [
        w & instance.endogenous
        for w in witnesses(instance.facts, demo_query(), instance.schemas)
    ]
    assert _component_count(parts) == 2
    assert _charged(parts) == 2 * 3 + 4


def test_forced_search_work_is_pinned():
    # forcing 0 on ten disjoint pairs: 0's component takes the root and its
    # one branch {0}, the nine others 3 nodes each, and the product 2^9
    # sets; an element in no member is answered before the search starts
    pairs = [{2 * i, 2 * i + 1} for i in range(10)]
    with Meter() as meter:
        got = minimal_hitting_sets(pairs, forced=0)
    assert len(got) == 512 and all(0 in h for h in got)
    assert meter.used == 2 + 9 * 3 + 512
    with Meter() as meter:
        assert minimal_hitting_sets(pairs, forced=20) == frozenset()
    assert meter.used == 0


def test_hitting_work_on_disjoint_pairs_is_pinned():
    # each pair is searched alone (3 nodes), and the product is charged
    # one unit per set: 39 + 2^13, where the whole-family search took one
    # node per prefix of choices, 2^14 - 1
    pairs = [{2 * i, 2 * i + 1} for i in range(13)]
    with Meter() as meter:
        assert len(minimal_hitting_sets(pairs)) == 8192
    assert meter.used == 13 * 3 + 8192


def test_hitting_work_on_a_star_is_pinned():
    # hub 0 with six leaves: the root, {0}, and {1}, {1, 2}, ..., {1, ..., 6};
    # adding the hub below {1} would leave 1 with no critical member, so
    # that branch is cut before it is entered
    star = [{0, leaf} for leaf in range(1, 7)]
    with Meter() as meter:
        assert minimal_hitting_sets(star) == fsets({0}, range(1, 7))
    assert meter.used == 8


def test_hitting_work_on_a_path_is_pinned():
    # the path 2-0-1-3 with its middle edge as the pivot: {0, 1} is found
    # once, below 1, because the branch of 0 (tried first) may not add 1;
    # finding it below 0 as well would add a seventh node
    path = [{0, 1}, {0, 2}, {1, 3}]
    with Meter() as meter:
        assert minimal_hitting_sets(path) == fsets({0, 1}, {0, 3}, {1, 2})
    assert meter.used == 6


def test_a_thousand_singletons_have_no_depth_cap():
    # 1060 singleton members: every element is essential, set aside with no
    # search and charged as the search over them would be, a root and one
    # node per member, with or without the forced element
    singletons = [{i} for i in range(1060)]
    for forced in (None, 530):
        with Meter() as meter:
            assert minimal_hitting_sets(singletons, forced=forced) == fsets(range(1060))
        assert meter.used == 1061


def test_a_deep_search_fails_on_the_budget(monkeypatch):
    # 1200 components of 3 nodes each, then 2^1200 product sets: the
    # product is charged in one step, before any of its sets is built
    built = []
    monkeypatch.setattr(hitting, "product", lambda *sets: built.append(sets))
    pairs = [{2 * i, 2 * i + 1} for i in range(1200)]
    with pytest.raises(BudgetError), Meter(10_000) as meter:
        minimal_hitting_sets(pairs)
    assert meter.used == 1200 * 3 + 2**1200
    assert built == []


def test_contingency_sets_are_charged_before_they_are_built():
    # 300 counterfactual causes, each with the other 299 as its one
    # contingency set: 300 * 299 units on top of the join and the search
    n = 300
    instance = Instance.infer(endogenous=[fact("S", f"c{i}") for i in range(n)])
    query = parse_query("q() :- S(X).")
    with Meter() as search:
        minimal_hitting_sets(endogenous_parts(instance, query))
    with Meter() as causes:
        assert len(actual_causes(instance, query)) == n
    assert causes.used - search.used == n * (n - 1)


@pytest.mark.parametrize("route", [minimal_hitting_sets, smallest_hitting_sets, min_hitting_size])
@pytest.mark.parametrize(
    "family, forced",
    [([], 1), ([set()], 1), ([{1}, set()], 1), ([{1}, {1, 2}], 2), ([{1}], 3)],
    ids=["empty-family", "only-the-empty-set", "holds-the-empty-set", "non-minimal", "absent"],
)
def test_forced_element_with_no_minimal_member_gets_nothing(route, family, forced):
    # checked before any search or product, in this order: an element in
    # no subset-minimal member is in no minimal hitting set, even where the
    # empty family alone would be hit by the empty set
    with Meter() as meter:
        got = route(family, forced=forced)
    assert got == (None if route is min_hitting_size else frozenset())
    assert meter.used == 0


def test_empty_family_and_empty_member_without_forcing():
    for route in (minimal_hitting_sets, smallest_hitting_sets):
        with Meter() as meter:
            assert route([]) == fsets(())
            assert route([{1}, set()]) == frozenset()
        assert meter.used == 0
    with Meter() as meter:
        assert min_hitting_size([]) == 0
        assert min_hitting_size([{1}, set()]) is None
    assert meter.used == 0


def _reference_split(family):
    """The numbering of ``_numbered`` restated from its definition."""
    minimal = {frozenset(s) for s in family}
    minimal = [s for s in minimal if not any(o < s for o in minimal)]
    if frozenset() in minimal:
        return None
    essential = frozenset().union(*(s for s in minimal if len(s) == 1))
    # connected components: each member merges every group it meets
    groups: list[list[frozenset]] = []
    for s in (s for s in minimal if len(s) > 1):
        met = [g for g in groups if any(s & m for m in g)]
        groups = [g for g in groups if g not in met] + [[s, *(m for g in met for m in g)]]
    parts = []
    for g in sorted(groups, key=lambda g: min(frozenset().union(*g))):
        elements = sorted(frozenset().union(*g))
        rows = sorted(g, key=lambda s: (len(s), sorted(s)))
        members = [sum(1 << i for i, x in enumerate(elements) if x in s) for s in rows]
        hits = [sum(1 << j for j, s in enumerate(rows) if x in s) for x in elements]
        parts.append((elements, members, hits, {x: i for i, x in enumerate(elements)}))
    return essential, parts


@given(
    st.lists(st.frozensets(st.integers(0, 11), max_size=3), max_size=9),
    st.none() | st.integers(0, 12),
)
@example([{1, 2}, {2, 1}, {1, 2, 3}, {4}, {4}, {5, 6}, {3, 5}], 6)
@example([{5, 6}, {1, 2, 3}], 2)
@example([{1, 2}, set(), {3}], None)
@example([], None)
@example([], 1)
def test_split_numbers_each_component_once(family, forced):
    # every pinned node count depends on this numbering: essential
    # elements apart, components by smallest element, each with its
    # elements sorted and its members in (len, sorted) order
    expected = _reference_split(family)
    assert hitting._numbered(frozenset(map(frozenset, family))) == expected
    # a forced element in no subset-minimal member leaves nothing to search
    unforceable = expected is None or (
        forced is not None
        and forced not in expected[0]
        and all(forced not in part[3] for part in expected[1])
    )
    assert (hitting._factored(family, forced) is None) == unforceable


def test_one_component_costs_the_whole_family_search():
    # a path 0-1-2-3-4 is one component: the factored search charges exactly
    # the nodes of one kernel run over the whole family, and no product
    path = [{i, i + 1} for i in range(4)]
    essential, ((_, members, hits, _),) = hitting._numbered(fsets(*path))
    assert not essential
    with Meter() as kernel:
        leaves = hitting._mmcs(members, hits, 0, kernel)
    with Meter() as meter:
        got = minimal_hitting_sets(path)
    assert got == fsets({1, 3}, {0, 2, 3}, {1, 2, 4}, {0, 2, 4})
    assert len(leaves) == 4
    assert meter.used == kernel.used
    # essential elements 7 and 8 come first in the whole-family search, one
    # node each above the path's root, and build no product
    with Meter() as meter:
        got = minimal_hitting_sets(path + [{7}, {8}])
    assert got == frozenset(h | {7, 8} for h in fsets({1, 3}, {0, 2, 3}, {1, 2, 4}, {0, 2, 4}))
    assert meter.used == kernel.used + 2


def test_smallest_sets_and_minimum_size():
    # a star with hub 0 and a disjoint pair: the least sets take the hub
    family = [{0, leaf} for leaf in range(1, 4)] + [{7, 8}]
    assert smallest_hitting_sets(family) == fsets({0, 7}, {0, 8})
    assert min_hitting_size(family) == 2
    # forcing a leaf: the other leaves must come too
    assert smallest_hitting_sets(family, forced=2) == fsets({1, 2, 3, 7}, {1, 2, 3, 8})
    assert min_hitting_size(family, forced=2) == 4
    # the elements of some least set of their own component, essential ones
    # included; none when nothing hits the family
    assert smallest_set_elements(family + [{9}]) == {0, 7, 8, 9}
    assert smallest_set_elements([]) == frozenset()
    assert smallest_set_elements([{1}, set()]) == frozenset()


def test_minimum_size_charges_no_product():
    # 1200 disjoint pairs: the minimum is one element per pair, found with
    # a bounded search per pair and nothing enumerated across them.  Each
    # pair takes the root, its first element (a leaf of size 1, which
    # lowers the bound to 0) and its second, cut by the bound: 3 nodes.
    # Forcing 7 leaves its pair the root and the one branch {7}.
    pairs = [{2 * i, 2 * i + 1} for i in range(1200)]
    with Meter(10_000) as meter:
        assert min_hitting_size(pairs) == 1200
    assert meter.used == 1200 * 3
    with Meter(10_000) as meter:
        assert min_hitting_size(pairs, forced=7) == 1200
    assert meter.used == 1199 * 3 + 2


@given(
    st.lists(
        st.sets(st.integers(0, 8), min_size=0, max_size=4),
        max_size=7,
    )
)
def test_smallest_sets_match_the_least_minimal_sets(family):
    full = minimal_hitting_sets(family)
    for x in [None] + sorted(set().union(*family)):
        sets = full if x is None else frozenset(h for h in full if x in h)
        least = min(map(len, sets), default=None)
        assert min_hitting_size(family, forced=x) == least
        assert smallest_hitting_sets(family, forced=x) == frozenset(
            h for h in sets if len(h) == least
        )


def _baseline(n: int) -> Instance:
    # n distinct all-endogenous facts over n/2 constants: R(ci, cj) with
    # probability 0.6, else S(ci)
    rng = random.Random(0)
    consts = [f"c{i}" for i in range(n // 2)]
    chosen: set = set()
    while len(chosen) < n:
        if rng.random() < 0.6:
            chosen.add(fact("R", rng.choice(consts), rng.choice(consts)))
        else:
            chosen.add(fact("S", rng.choice(consts)))
    return Instance.infer(endogenous=sorted(chosen))


def test_minimum_answers_on_the_baseline_do_not_enumerate():
    # at n = 60 the witness parts fall into 17 components of at most 5
    # facts; enumerating the whole family took 226,402 units for the
    # responsibility and 419,713 for the C-repairs (131,072 S-repairs)
    instance = _baseline(60)
    query = parse_query("q() :- R(X, Y), S(Y).")
    parts = endogenous_parts(instance, query)
    assert _component_count(parts) == 17
    first = min(frozenset().union(*minimize_family(parts)))
    with Meter() as meter:
        assert responsibility(instance, query, first) == Fraction(1, 19)
    assert meter.used < 5_000
    with Meter() as meter:
        assert len(c_repairs(instance, [parse_denial_constraint(":- R(X, Y), S(Y).")])) == 128
    assert meter.used < 10_000
