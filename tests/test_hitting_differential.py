"""Differential tests of the hitting-set engine and the antichain filters
against brute-force definitions, on seeded families over 10-14
elements: random families, and the gadget shapes of the benchmark's
``cq-enum`` workload (paths, 3-cycles, stars and disjoint pairs) placed
side by side."""
from __future__ import annotations

import random

import pytest

from causelab.hitting import maximize_family, minimal_hitting_sets, minimize_family
from causelab.oracles import minimal_hitting_sets_by_enumeration

pytestmark = pytest.mark.differential


def _path(first: int, length: int) -> list[set[int]]:
    return [{first + i, first + i + 1} for i in range(length - 1)]


def _cycle3(first: int) -> list[set[int]]:
    a, b, c = first, first + 1, first + 2
    return [{a, b}, {b, c}, {c, a}]


def _star(first: int, ins: int, outs: int) -> list[set[int]]:
    # every edge into the hub meets every edge out of it
    return [{first + i, first + ins + o} for i in range(ins) for o in range(outs)]


def _gadgets(rng: random.Random) -> list[set[int]]:
    family: list[set[int]] = []
    used = 0
    while used < 10:
        kind = rng.choice(["path", "cycle", "star", "pair"])
        if kind == "path":
            length = rng.randint(3, 5)
            family += _path(used, length)
        elif kind == "cycle":
            length = 3
            family += _cycle3(used)
        elif kind == "star":
            ins, outs = rng.randint(1, 2), rng.randint(1, 3)
            length = ins + outs
            family += _star(used, ins, outs)
        else:
            length = 2
            family.append({used, used + 1})
        used += length
    if used > 14:
        family = [s for s in family if max(s) < 14]
    return family[:12]


def _random(rng: random.Random) -> list[set[int]]:
    n = rng.randint(10, 14)
    return [set(rng.sample(range(n), rng.randint(1, 4))) for _ in range(rng.randint(1, 12))]


GADGETS = [_gadgets(random.Random(seed)) for seed in range(20)]
FAMILIES = GADGETS + [_random(random.Random(seed)) for seed in range(40)]


def test_families_span_the_intended_shapes():
    assert all(1 <= len(f) <= 12 for f in FAMILIES)
    assert all(10 <= len(frozenset().union(*f)) <= 14 for f in GADGETS)
    assert any(len(s) == 1 for f in FAMILIES for s in f)
    assert max(len(minimal_hitting_sets(f)) for f in FAMILIES) >= 64


@pytest.mark.parametrize("family", FAMILIES, ids=[f"family{i}" for i in range(len(FAMILIES))])
def test_hitting_sets_match_the_oracle(family):
    assert minimal_hitting_sets(family) == minimal_hitting_sets_by_enumeration(family)


def _minimal_pairwise(sets):
    unique = {frozenset(s) for s in sets}
    return frozenset(s for s in unique if not any(t < s for t in unique))


def _maximal_pairwise(sets):
    unique = {frozenset(s) for s in sets}
    return frozenset(s for s in unique if not any(s < t for t in unique))


def _mixed(rng: random.Random) -> list[set[int]]:
    return [set(rng.sample(range(8), rng.randint(0, 5))) for _ in range(rng.randint(0, 30))]


def _equal(rng: random.Random) -> list[set[int]]:
    size = rng.randint(0, 4)
    return [set(rng.sample(range(8), size)) for _ in range(rng.randint(0, 30))]


@pytest.mark.parametrize("draw", [_mixed, _equal])
def test_antichains_match_the_pairwise_definition(draw):
    for seed in range(60):
        sets = draw(random.Random(seed))
        assert minimize_family(sets) == _minimal_pairwise(sets)
        assert maximize_family(sets) == _maximal_pairwise(sets)
