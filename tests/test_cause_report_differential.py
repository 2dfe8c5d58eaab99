"""Differential tests of the rank-space cause report against the
frozenset-and-sort form.

``cause_set_to_list`` ranks and sorts a cause set's hitting sets once
and reads each cause's minimal contingency sets off them as the sorted
sets containing it, less itself.  Here its payload, and the text
``dumps`` makes of it, are compared with ``sorted(..., key=sorted)`` of
each cause's frozenset family, read from a dict materialized from the
same cause set, and with ``json.dumps``.  The plain dict takes the same
path through its sets Gamma plus t and must print the same bytes.  The
cases are the medium tier (20-60 facts) of the consistent-answer and
per-tuple differentials, path instances whose witness family is one
component, the eight gadget shapes of the benchmark's enumeration
workload, and the brute-force cause oracle's dicts at up to
``LATTICE_CAP`` facts.

The hitting-set engine's answers carry their own ranking, read off the
search's component numbering: on the same cases, and on essential-only,
empty and empty-set-holding families, a report of an engine answer (its
rank tuples, its ``dumps`` text, plain or as records, and the cause
report read off it) equals the report of the same sets as a plain
frozenset, which the writer ranks itself; an answer no report reads
computes no ranking, and a copy or pickle of one is that plain frozenset.
"""
from __future__ import annotations

import copy
import json
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from causelab import (
    Instance,
    actual_causes,
    build_problem,
    causes_from_repairs,
    causes_via_diagnosis,
    cross_check,
    fact,
    parse_query,
)
from causelab.causality import cause_set_from_hitting_sets, endogenous_parts
from causelab.hitting import (
    HittingFamily,
    minimal_hitting_sets,
    minimize_family,
    smallest_hitting_sets,
)
from causelab.oracles import LATTICE_CAP, causes_by_enumeration
from causelab.serialize import cause_set_to_list, dumps, family_to_list

import test_component_differential
from test_serialize_differential import _old_cause_set_to_list, first_difference, plain

pytestmark = pytest.mark.differential

PATH2 = "q() :- R(X, Y), R(Y, Z)."
PATH2S = "q() :- R(X, Y), R(Y, Z), S(Z)."

#: The enumeration workload's instances: a disjoint union of gadgets, each
#: ``("path", edges, with_s)``, ``("star", into_hub, out_of_hub, with_s)``
#: or ``("cycle", edges)``; with ``with_s`` the path's last node, or each
#: node the hub points to, gets an S fact.
GADGETS = [
    (PATH2, [("path", 2, False)] * 4),
    (PATH2, [("path", 3, False)] * 5),
    (PATH2, [("path", 4, False)] * 4),
    (PATH2, [("cycle", 3)] * 5),
    (PATH2S, [("path", 2, True)] * 6),
    (PATH2, [("star", 2, 2, False)] * 4 + [("star", 1, 2, False)]),
    (PATH2S, [("star", 2, 2, True)] * 2 + [("star", 1, 2, True)]),
    (PATH2, [("path", 2, False)] * 10),
]


def _gadget_instance(gadgets: list[tuple]) -> Instance:
    """The gadgets over fresh nodes, plus an isolated edge and an isolated
    S fact that lie in no witness; every fact endogenous."""
    counter = iter(range(10**6))

    def node() -> str:
        return f"v{next(counter):03d}"

    facts = []
    for kind, *args in gadgets:
        if kind == "path":
            length, with_s = args
            nodes = [node() for _ in range(length + 1)]
            facts += [fact("R", a, b) for a, b in zip(nodes, nodes[1:])]
            facts += [fact("S", nodes[-1])] if with_s else []
        elif kind == "star":
            into, out, with_s = args
            hub = node()
            facts += [fact("R", node(), hub) for _ in range(into)]
            for _ in range(out):
                target = node()
                facts += [fact("R", hub, target)] + ([fact("S", target)] if with_s else [])
        else:
            nodes = [node() for _ in range(args[0])]
            facts += [fact("R", a, b) for a, b in zip(nodes, nodes[1:] + nodes[:1])]
    facts += [fact("R", node(), node()), fact("S", node())]
    return Instance.infer(endogenous=facts)


CASES = [
    (f"{kind}{i}", instance, parse_query("q() " + text))
    for kind, i, (instance, text) in test_component_differential.CASES
    if kind != "small"
]
CASES += [(f"gadget{k}", _gadget_instance(g), parse_query(q)) for k, (q, g) in enumerate(GADGETS)]
SMALL = [
    (f"small{i}", instance, parse_query("q() " + text))
    for kind, i, (instance, text) in test_component_differential.CASES
    if kind == "small"
]


def test_cases_cover_the_tiers_and_the_gadgets():
    sizes = [len(instance.facts) for _, instance, _ in CASES]
    assert min(sizes) >= 10 and max(sizes) >= 50
    assert sum(name.startswith("path") for name, _, _ in CASES) == 20
    # the last gadget instance is ten disjoint two-edge paths: 2^10 sets
    hitting_sets = {g | {t} for t, gammas in actual_causes(*CASES[-1][1:]).items() for g in gammas}
    assert len(hitting_sets) == 1024
    assert SMALL and all(len(instance.facts) <= LATTICE_CAP for _, instance, _ in SMALL)
    # most cases have several hitting sets, so their ranking sorts something
    several = [len(minimal_hitting_sets(endogenous_parts(*case[1:]))) > 1 for case in CASES]
    assert sum(several) >= len(CASES) // 2


def _check_report(cause_set, expected) -> str:
    """The cause set's payload checked against ``expected`` (plain lists)
    and ``json.dumps``; its text, which a plain dict of the same cause set
    prints too."""
    payload = cause_set_to_list(cause_set)
    assert first_difference(plain(payload), expected) is None
    text = dumps(payload)
    assert first_difference(text, json.dumps(plain(payload), indent=2) + "\n") is None
    assert first_difference(dumps(cause_set_to_list(dict(cause_set))), text) is None
    return text


@pytest.mark.parametrize("name, instance, query", CASES, ids=[c[0] for c in CASES])
def test_rank_space_report_matches_the_sorted_frozensets(name, instance, query):
    causes = actual_causes(instance, query)
    materialized = {t: causes[t] for t in causes}
    _check_report(causes, _old_cause_set_to_list(materialized))


@pytest.mark.parametrize("name, instance, query", SMALL, ids=[c[0] for c in SMALL])
def test_oracle_dicts_print_as_the_hitting_set_cause_set(name, instance, query):
    oracle = causes_by_enumeration(instance, query)
    text = _check_report(oracle, _old_cause_set_to_list(oracle))
    assert first_difference(dumps(cause_set_to_list(actual_causes(instance, query))), text) is None


def test_an_empty_cause_set_prints_no_causes():
    for empty in ({}, cause_set_from_hitting_sets([])):
        assert cause_set_to_list(empty) == []
        assert dumps({"causes": cause_set_to_list(empty)}) == '{\n  "causes": []\n}\n'


@given(
    st.lists(st.frozensets(st.integers(0, 7), max_size=6), max_size=12),
    st.integers(0, 7),
)
def test_removing_a_shared_element_keeps_an_antichain_sorted(family, t):
    # sorted tuples compare as sorted(..., key=sorted) compares the sets
    antichain = minimize_family(family)
    keys = sorted(tuple(sorted(s)) for s in antichain)
    sub = [tuple(x for x in key if x != t) for key in keys if t in key]
    assert sub == sorted(sub)


def test_a_family_that_is_no_antichain_can_flip():
    # {1, 3} is a subset of {1, 2, 3}: less 3 they are (1,) and (1, 2)
    keys = sorted([(1, 2, 3), (1, 3)])
    sub = [tuple(x for x in key if x != 3) for key in keys]
    assert sub == [(1, 2), (1,)] != sorted(sub)


def _engine_families(family, forced):
    """The engine's answers on a family: all minimal and all least hitting
    sets, and both again holding each of ``forced``."""
    found = [minimal_hitting_sets(family), smallest_hitting_sets(family)]
    for t in forced:
        found += [minimal_hitting_sets(family, forced=t), smallest_hitting_sets(family, forced=t)]
    return found


def _check_ranking(found) -> None:
    """An engine answer reports as the same sets held as a plain frozenset."""
    plain = frozenset(found)
    assert type(plain) is frozenset
    ranked, expected = family_to_list(found), family_to_list(plain)
    assert first_difference(ranked.order, expected.order) is None
    assert first_difference(ranked.ranks, expected.ranks) is None
    assert first_difference(ranked, [sorted(s) for s in sorted(plain, key=sorted)]) is None
    for args, fields in [((), {}), (("removed",), {"kind": "S"}), (("abnormal",), {})]:
        text = dumps({"family": family_to_list(found, *args, **fields)})
        want = dumps({"family": family_to_list(plain, *args, **fields)})
        assert first_difference(text, want) is None


@pytest.mark.parametrize("name, instance, query", CASES, ids=[c[0] for c in CASES])
def test_engine_ranking_matches_the_plain_frozenset(name, instance, query):
    parts = endogenous_parts(instance, query)
    # a cause, a fact in no witness and one more, wherever they fall
    endogenous = sorted(instance.endogenous)
    for family in _engine_families(parts, endogenous[:: max(1, len(endogenous) // 3)]):
        _check_ranking(family)


A, B, C, D, E = (fact("R", x) for x in "abcde")
EDGE_FAMILIES = {
    "essential-only": [{A}, {B}, {C}],
    "essential-and-components": [{A}, {B, C}, {C, D}, {D, E}, {A, E}],
    "empty": [],
    "holds-the-empty-set": [set(), {A}],
    "one-member": [{A, B, C}],
    # the product lists {C, E} before {B, D}: only the sort puts them in order
    "interleaved": [{A, C, D}, {B, E}],
}


@pytest.mark.parametrize("family", EDGE_FAMILIES.values(), ids=EDGE_FAMILIES)
def test_edge_family_ranking_matches_the_plain_frozenset(family):
    for found in _engine_families(family, [A, C]):
        _check_ranking(found)
        # a copy or a pickle is the plain frozenset of the same sets
        for copied in (copy.copy(found), copy.deepcopy(found), pickle.loads(pickle.dumps(found))):
            assert type(copied) is frozenset and copied == found


def test_the_empty_family_and_one_holding_the_empty_set_rank_apart():
    assert family_to_list(minimal_hitting_sets([])) == [[]]
    assert family_to_list(minimal_hitting_sets([set(), {A}])) == []
    assert dumps(family_to_list(minimal_hitting_sets([]), "abnormal")) == (
        '[\n  {\n    "abnormal": []\n  }\n]\n'
    )


@pytest.mark.parametrize("name, instance, query", CASES, ids=[c[0] for c in CASES])
def test_every_cause_route_reports_from_the_engine_ranking(name, instance, query):
    routes = [
        actual_causes(instance, query),
        causes_from_repairs(instance, query),
        causes_via_diagnosis(build_problem(instance, query)),
    ]
    texts = set()
    for causes in routes:
        # the cause set keeps the engine's answer, not a copy of it
        assert isinstance(causes.hitting_sets, HittingFamily) or not causes.hitting_sets
        plain = cause_set_from_hitting_sets(frozenset(causes.hitting_sets))
        assert type(plain.hitting_sets) is frozenset
        text = dumps(cause_set_to_list(causes))
        assert first_difference(text, dumps(cause_set_to_list(plain))) is None
        texts.add(text)
    assert len(texts) == 1


def test_a_family_no_report_reads_computes_no_ranking(monkeypatch):
    _, instance, query = CASES[-1]
    causes = actual_causes(instance, query)
    assert cause_set_from_hitting_sets(causes.hitting_sets).hitting_sets is causes.hitting_sets
    assert causes.hitting_sets._ranking is None
    cause_set_to_list(causes)
    ranking = causes.hitting_sets._ranking
    assert ranking is not None
    # a second report reads the same ranking
    cause_set_to_list(causes)
    assert causes.hitting_sets._ranking is ranking
    # the harness's properties compare families and print none of them
    calls = []
    read = HittingFamily.ranking
    monkeypatch.setattr(HittingFamily, "ranking", lambda self: calls.append(self) or read(self))
    reports = cross_check(2, 20, 7)
    assert all(r.passed for r in reports if r.property_id.startswith(("repairs.", "diagnosis.")))
    assert calls == []
