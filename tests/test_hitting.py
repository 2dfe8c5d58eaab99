from __future__ import annotations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from causelab.budget import Meter
from causelab.checks import demo_instance, demo_query
from causelab.errors import BudgetError
from causelab.oracles import minimal_hitting_sets_by_enumeration, subsets_of
from causelab.hitting import (
    maximize_family,
    minimal_hitting_sets,
    minimize_family,
)
from causelab.model import witnesses


def fsets(*groups):
    return frozenset(frozenset(g) for g in groups)


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
    # order would in general visit a different number of nodes
    assert _charged([{2 * i, 2 * i + 1} for i in range(10)]) == 2047
    instance = demo_instance()
    parts = [
        w & instance.endogenous
        for w in witnesses(instance.facts, demo_query(), instance.schemas)
    ]
    assert _charged(parts) == 7


def test_forced_search_work_is_pinned():
    # forcing 0 on ten disjoint pairs: the root, its one branch {0}, then
    # one node per prefix of choices over the other nine pairs, 2^10 - 2;
    # an element in no member is answered before the search starts
    pairs = [{2 * i, 2 * i + 1} for i in range(10)]
    with Meter() as meter:
        got = minimal_hitting_sets(pairs, forced=0)
    assert len(got) == 512 and all(0 in h for h in got)
    assert meter.used == 1024
    with Meter() as meter:
        assert minimal_hitting_sets(pairs, forced=20) == frozenset()
    assert meter.used == 0


def test_hitting_work_on_disjoint_pairs_is_pinned():
    # one node per prefix of choices: 2^14 - 1 nodes for 2^13 leaves
    pairs = [{2 * i, 2 * i + 1} for i in range(13)]
    with Meter() as meter:
        assert len(minimal_hitting_sets(pairs)) == 8192
    assert meter.used == 16_383


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

