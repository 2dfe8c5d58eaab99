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
"""
from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from causelab import Instance, actual_causes, fact, parse_query
from causelab.causality import cause_set_from_hitting_sets
from causelab.hitting import minimize_family
from causelab.oracles import LATTICE_CAP, causes_by_enumeration
from causelab.serialize import cause_set_to_list, dumps

import test_component_differential
from test_serialize_differential import _old_cause_set_to_list, plain

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


def _check_report(cause_set, expected) -> str:
    """The cause set's payload checked against ``expected`` (plain lists)
    and ``json.dumps``; its text, which a plain dict of the same cause set
    prints too."""
    payload = cause_set_to_list(cause_set)
    assert plain(payload) == expected
    text = dumps(payload)
    assert text == json.dumps(plain(payload), indent=2) + "\n"
    assert dumps(cause_set_to_list(dict(cause_set))) == text
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
    assert dumps(cause_set_to_list(actual_causes(instance, query))) == text


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
