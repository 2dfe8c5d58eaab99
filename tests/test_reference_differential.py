"""Differential tests of the engines against an independent reference
above the lattice cap.

``perfbench/reference.py`` imports nothing from causelab: its join,
Berge's minimal-transversal enumeration per component and its
responsibilities are written from the definitions, so an answer that
agrees with them was not checked against the code that produced it.
Each route is compared with it on the medium tier (the instances of 20
facts or more of the consistent-answer and per-tuple differentials) and
on the path instances whose witness family is one component, which the
engine answers with one run of its search kernel.  Every enumerated
family also carries two certificates that need no second engine: each
set hits every member, and each element of a set is the set's only
element in some member, so the set is a minimal hitting set.  No case
has more than 4,096 sets, so none is skipped.
"""
from __future__ import annotations

import importlib
from pathlib import Path

import pytest

from causelab import (
    Variable,
    actual_causes,
    build_problem,
    c_repairs,
    minimal_diagnoses,
    parse_denial_constraint,
    parse_query,
    responsibility_of,
    s_repairs,
)
from causelab.causality import endogenous_parts
from causelab.hitting import minimal_hitting_sets
from causelab.model import witnesses

import test_component_differential
import test_cqa_differential
import test_per_tuple_differential

pytestmark = pytest.mark.differential

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

CASES = (
    [(f"medium{i}", case) for i, case in enumerate(
        case for case in test_cqa_differential.CASES if len(case[0].facts) >= 20
    )]
    + [(f"per-tuple{i}", case) for i, case in enumerate(test_per_tuple_differential.CASES)]
    + [(f"path{seed}", case) for seed, case in test_component_differential.PATHS]
)


@pytest.fixture
def ref(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("reference")


def _tuple(f) -> tuple:
    """A fact in the reference's notation: ``(relation, arg, ...)``."""
    return (f.relation, *f.args)


def _atoms(query) -> list[tuple]:
    """The query's atoms in the reference's notation, where a term is a
    variable iff it starts with an uppercase letter; the cases' queries
    have variables only."""
    return [
        (a.relation, *("V" + t.name if isinstance(t, Variable) else t for t in a.terms))
        for a in query.atoms
    ]


def _plain(family) -> set[frozenset]:
    return {frozenset(map(_tuple, s)) for s in family}


def _certify(sets, members) -> None:
    """Each set hits every member, and each of its elements is the set's
    only element in some member."""
    members = list(members)
    for h in sets:
        alone = set()
        for m in members:
            common = m & h
            assert common, f"{sorted(h)} misses {sorted(m)}"
            if len(common) == 1:
                alone |= common
        assert alone == h, f"{sorted(h - alone)} of {sorted(h)} hit no member alone"


@pytest.mark.parametrize("case", [case for _, case in CASES], ids=[name for name, _ in CASES])
def test_routes_match_the_reference(case, ref):
    instance, text = case
    query, constraint = parse_query("q() " + text), parse_denial_constraint(text)
    found = ref.witnesses(set(map(_tuple, instance.facts)), _atoms(query))
    assert _plain(witnesses(instance.facts, query, instance.schemas)) == found
    endogenous = set(map(_tuple, instance.endogenous))
    parts = {w & endogenous for w in found}
    hitting = ref.transversals(parts)

    family = endogenous_parts(instance, query)
    sets = minimal_hitting_sets(family)
    _certify(sets, family)
    assert _plain(sets) == hitting
    causes = actual_causes(instance, query)
    rho = {_tuple(t): responsibility_of(gammas) for t, gammas in causes.items()}
    assert rho == ref.responsibilities(hitting)
    diagnoses = minimal_diagnoses(build_problem(instance, query))
    _certify(diagnoses, family)
    assert _plain(diagnoses) == hitting

    # a repair removes a hitting set of the violations, which are the
    # query's witnesses; with every witness endogenous they are the parts
    removals = hitting if parts == found else ref.transversals(found)
    repairs = s_repairs(instance, [constraint])
    _certify(repairs, witnesses(instance.facts, constraint, instance.schemas))
    assert _plain(repairs) == removals
    least = min(map(len, removals))
    assert _plain(c_repairs(instance, [constraint])) == {r for r in removals if len(r) == least}
