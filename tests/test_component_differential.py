"""Differential tests of the factored hitting-set routes against the
search run once on the whole, unfactored family.

The factored routes split a family into components, search each alone
and combine the results: the product for the enumerations, and a sum of
component minima for the minimum-size answers.  Here each is compared
with the search kernel run on the whole family, filtered where the
route asks for least sets, and with the subset-lattice oracles where an
instance has at most ``LATTICE_CAP`` facts.  The cases are the medium
tier (20-60 facts) of the consistent-answer and per-tuple differentials,
queries of three and four atoms with self-joins, and path instances whose
witness family is one component, where factoring must change nothing,
charges included.
"""
from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from causelab import (
    Instance,
    actual_causes,
    build_problem,
    c_repairs,
    datalog_responsibility,
    fact,
    most_responsible_causes,
    parse_denial_constraint,
    parse_program,
    parse_query,
    responsibility,
    responsibility_of,
    s_repairs,
    smallest_diagnoses_containing,
)
from causelab import hitting
from causelab.budget import Meter, current_meter
from causelab.causality import endogenous_parts
from causelab.hitting import (
    min_hitting_size,
    minimal_hitting_sets,
    minimize_family,
    smallest_hitting_sets,
)
from causelab.model import witnesses
from causelab.oracles import (
    LATTICE_CAP,
    causes_by_enumeration,
    diagnoses_by_enumeration,
    s_repair_removals_by_enumeration,
)

import test_cqa_differential
import test_per_tuple_differential

pytestmark = pytest.mark.differential

SRC = Path(__file__).resolve().parents[1] / "src"

#: Bodies of three and four atoms, each joining R with itself.
SELF_JOINS = [
    ":- R(X, Y), R(Y, Z), R(Z, W), S(W).",
    ":- R(X, Y), R(Y, Z), S(X), S(Z).",
    ":- R(X, Y), R(Y, X), R(X, Z), S(Z).",
    ":- R(X, Y), R(X, Z), S(Y), S(Z).",
    ":- R(X, Y), R(Y, Z), R(Z, X).",
]

PATH_BODY = ":- R(X, Y), S(Y, Z), T(Z)."


def _whole(family, forced=None) -> frozenset[frozenset]:
    """The search kernel run once on the whole family, numbered as one
    part: the hitting-set search as it ran before factoring."""
    base = sorted(minimize_family(family), key=lambda s: (len(s), sorted(s)))
    elements = sorted(frozenset().union(*base))
    if (base and not base[0]) or (forced is not None and forced not in elements):
        return frozenset()
    if not base:
        return frozenset({frozenset()})
    index = {x: i for i, x in enumerate(elements)}
    members, hits = hitting._masks([[index[x] for x in s] for s in base], len(elements))
    root = 0 if forced is None else 1 << index[forced]
    leaves = hitting._mmcs(members, hits, root, current_meter())
    return frozenset(frozenset(x for i, x in enumerate(elements) if h >> i & 1) for h in leaves)


def _least(sets) -> frozenset[frozenset]:
    best = min(map(len, sets), default=0)
    return frozenset(s for s in sets if len(s) == best)


def _self_join_case(seed: int) -> tuple[Instance, str]:
    """20-40 all-endogenous facts over one constant per two facts, with a
    self-join query: about half of the families split into components."""
    rng = random.Random(seed)
    n = rng.randint(20, 40)
    consts = [f"c{i}" for i in range(n // 2)]
    chosen: set = set()
    while len(chosen) < n:
        if rng.random() < 0.6:
            chosen.add(fact("R", rng.choice(consts), rng.choice(consts)))
        else:
            chosen.add(fact("S", rng.choice(consts)))
    return Instance.infer(endogenous=sorted(chosen)), SELF_JOINS[seed % len(SELF_JOINS)]


def _path_case(seed: int) -> tuple[Instance, str]:
    """A path instance: 20-30 facts over one constant per five facts,
    ``R(ci, cj)`` 0.4, ``S(ci, cj)`` 0.4 and ``T(ci)`` 0.2."""
    rng = random.Random(seed)
    n = rng.randint(20, 30)
    consts = [f"c{i}" for i in range(n // 5)]
    chosen: set = set()
    while len(chosen) < n:
        draw = rng.random()
        if draw < 0.4:
            chosen.add(fact("R", rng.choice(consts), rng.choice(consts)))
        elif draw < 0.8:
            chosen.add(fact("S", rng.choice(consts), rng.choice(consts)))
        else:
            chosen.add(fact("T", rng.choice(consts)))
    return Instance.infer(endogenous=sorted(chosen)), PATH_BODY


def _query(text: str):
    """The boolean query over a denial constraint's body."""
    return parse_query("q() " + text)


def _family(instance: Instance, text: str):
    return endogenous_parts(instance, _query(text))


def _component_count(family) -> int:
    """The components of a family: one per essential element and one per
    searched part, or one when the family holds the empty set."""
    split = hitting._numbered(frozenset(family))
    return 1 if split is None else len(split[0]) + len(split[1])


#: The first 20 path instances whose witness family is one component.
PATHS = [
    (seed, case)
    for seed, case in ((seed, _path_case(seed)) for seed in range(40))
    if _component_count(_family(*case)) == 1
][:20]
MEDIUM = [case for case in test_cqa_differential.CASES if len(case[0].facts) >= 20]
SMALL = [case for case in test_cqa_differential.CASES if len(case[0].facts) <= LATTICE_CAP]
CASES = (
    [("cqa", i, case) for i, case in enumerate(MEDIUM)]
    + [("small", i, case) for i, case in enumerate(SMALL)]
    + [("per-tuple", i, case) for i, case in enumerate(test_per_tuple_differential.CASES)]
    + [("self-join", seed, _self_join_case(seed)) for seed in range(30)]
    + [("path", seed, case) for seed, case in PATHS]
)
IDS = [f"{kind}{i}" for kind, i, _ in CASES]


def test_cases_cover_sizes_components_and_self_joins():
    sizes = [len(instance.facts) for _, _, (instance, _) in CASES]
    assert min(sizes) <= LATTICE_CAP and max(sizes) >= 50
    counts = [_component_count(_family(*case)) for _, _, case in CASES]
    assert sum(c == 1 for c in counts) >= 30
    assert sum(c >= 2 for c in counts) >= 60
    assert max(counts) >= 8
    assert len(PATHS) == 20
    four = [text for _, _, (_, text) in CASES if text.count("(") == 4]
    assert len(four) >= 20


def _charged(route, *args):
    """What ``route(*args)`` returns, and the units it charged."""
    with Meter() as meter:
        found = route(*args)
    return found, meter.used


@pytest.mark.parametrize("kind, seed, case", CASES, ids=IDS)
def test_factored_search_matches_the_whole_family_search(kind, seed, case):
    # branch and bound visits only nodes of the plain search, one unit
    # each.  So the least size charges no more than the whole-family search
    # on the same forced element, save one root per further component (in
    # the whole-family search that node is a leaf of the component before),
    # and the least sets, whose product is part of the full one, no more
    # than the factored enumeration
    family = _family(*case)
    split = hitting._numbered(family)
    roots = max(len(split[1]) - 1, 0) if split else 0
    for t in [None] + sorted(case[0].endogenous):
        whole, spent = _charged(_whole, family, t)
        if t is None:
            everything = whole
        else:
            assert whole == frozenset(h for h in everything if t in h)
        found, enumerated = _charged(minimal_hitting_sets, family, t)
        assert found == whole
        found, used = _charged(smallest_hitting_sets, family, t)
        assert found == _least(whole)
        assert used <= enumerated
        found, used = _charged(min_hitting_size, family, t)
        assert found == min(map(len, whole), default=None)
        assert used <= spent + roots


@pytest.mark.parametrize("kind, seed, case", CASES, ids=IDS)
def test_minimum_routes_match_enumerate_and_filter(kind, seed, case):
    instance, text = case
    query, constraint = _query(text), parse_denial_constraint(text)
    causes = actual_causes(instance, query)
    problem = build_problem(instance, query)
    diagnoses = _whole(problem.parts)
    for t in sorted(instance.endogenous):
        assert responsibility(instance, query, t) == responsibility_of(causes.get(t, ()))
        assert smallest_diagnoses_containing(problem, t) == _least(
            frozenset(d for d in diagnoses if t in d)
        )
    rho = {t: responsibility_of(gammas) for t, gammas in causes.items()}
    top = max(rho.values(), default=None)
    assert most_responsible_causes(instance, query) == frozenset(
        t for t, r in rho.items() if r == top
    )
    assert c_repairs(instance, [constraint]) == _least(s_repairs(instance, [constraint]))
    assert s_repairs(instance, [constraint]) == _whole(
        witnesses(instance.facts, constraint)
    )
    if len(instance.facts) <= LATTICE_CAP:
        oracle = causes_by_enumeration(instance, query)
        for t in sorted(instance.endogenous):
            assert responsibility(instance, query, t) == responsibility_of(oracle.get(t, ()))
            assert smallest_diagnoses_containing(problem, t) == _least(
                frozenset(d for d in diagnoses_by_enumeration(problem) if t in d)
            )
        assert c_repairs(instance, [constraint]) == _least(
            s_repair_removals_by_enumeration(instance, [constraint])
        )


@pytest.mark.parametrize(
    "kind, seed, case", [c for c in CASES if c[0] in ("per-tuple", "path")],
    ids=[i for i, c in zip(IDS, CASES) if c[0] in ("per-tuple", "path")],
)
def test_datalog_responsibility_matches_the_query_route(kind, seed, case):
    instance, text = case
    query, program = _query(text), parse_program("ans " + text)
    family = endogenous_parts(instance, query)
    for t in sorted(instance.endogenous):
        size = min_hitting_size(family, forced=t)
        expected = Fraction(0) if size is None else Fraction(1, size)
        assert responsibility(instance, query, t) == expected
        assert datalog_responsibility(program, instance, t) == expected


@pytest.mark.parametrize(
    "kind, seed, case", [c for c in CASES if c[0] == "path"],
    ids=[i for i, c in zip(IDS, CASES) if c[0] == "path"],
)
def test_one_component_costs_what_the_whole_search_costs(kind, seed, case):
    family = _family(*case)
    for forced in [None] + sorted(case[0].endogenous)[::5]:
        with Meter() as whole:
            expected = _whole(family, forced)
        with Meter() as factored:
            assert minimal_hitting_sets(family, forced) == expected
        assert factored.used == whole.used


PROBE = """
import sys
sys.path[:0] = [{src!r}, {tests!r}]
from causelab.budget import Meter, current_meter
from causelab.hitting import min_hitting_size, minimal_hitting_sets, smallest_hitting_sets
from test_component_differential import CASES, _family
for kind, seed, case in CASES[::7]:
    family = _family(*case)
    forced = sorted(case[0].facts)[len(case[0].facts) // 2]
    with Meter() as meter:
        found = [sorted(map(sorted, minimal_hitting_sets(family))),
                 sorted(map(sorted, smallest_hitting_sets(family, forced))),
                 min_hitting_size(family, forced)]
    print(kind, seed, meter.used, found)
"""


def test_outputs_and_charges_do_not_depend_on_the_hash_seed():
    script = PROBE.format(src=str(SRC), tests=str(Path(__file__).parent))
    outputs = set()
    for seed in ("0", "1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed}
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True)
        assert run.returncode == 0, run.stderr
        outputs.add(run.stdout)
    assert len(outputs) == 1
