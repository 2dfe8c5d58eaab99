from __future__ import annotations

import gc
import json
import os
import random
import subprocess
import sys
import weakref
from collections.abc import Mapping
from fractions import Fraction
from pathlib import Path

import pytest

from causelab import checks, oracles
from causelab.checks import (
    PROPERTIES,
    build_corpus,
    cross_check,
    fixture_checks,
    random_instance,
    random_query,
)
from causelab.model import Fact, check_query_schema, fact
from causelab.oracles import FixpointLattice


def test_zero_trials_give_an_empty_report():
    assert cross_check(trials=0) == []


def test_corpus_is_seed_deterministic():
    a = build_corpus(7, 20, 7)
    b = build_corpus(7, 20, 7)
    assert a == b
    assert a != build_corpus(8, 20, 7)


def test_random_instances_respect_the_size_cap():
    rng = random.Random(3)
    for _ in range(100):
        inst = random_instance(rng, 5)
        assert len(inst.facts) <= 5
        assert inst.endogenous.isdisjoint(inst.exogenous)


def test_random_queries_are_well_formed():
    rng = random.Random(4)
    for _ in range(50):
        inst = random_instance(rng, 7)
        query = random_query(rng, inst)
        assert 1 <= len(query.atoms) <= 3
        check_query_schema(query, inst.schemas)  # must not raise


def test_small_cross_check_passes():
    reports = cross_check(seed=5, trials=25, max_size=6)
    assert len(reports) == len(PROPERTIES)
    for report in reports:
        assert report.instances == 25
        assert report.passed, report.failures[:1]


def test_failures_serialize_for_replay():
    # force a failure through a deliberately broken pseudo-property
    from causelab.checks import _describe_failure

    item = build_corpus(1, 1, 5)[0]
    blob = _describe_failure(item, "boom")
    decoded = json.loads(blob)
    assert decoded["detail"] == "boom"
    assert "schemas" in decoded["instance"]


def test_fixture_checks_pass():
    for report in fixture_checks():
        assert report.passed, (report.property_id, report.failures)


def test_cross_check_releases_its_corpus(monkeypatch):
    refs = []

    def capture(*args):
        corpus = build_corpus(*args)
        refs.extend(weakref.ref(item.instance) for item in corpus)
        return corpus

    monkeypatch.setattr(checks, "build_corpus", capture)
    cross_check(seed=3, trials=5, max_size=5)
    gc.collect()
    assert refs and all(r() is None for r in refs)


def test_the_datalog_oracles_share_one_fixpoint_per_subset(monkeypatch):
    # the three Datalog oracle properties read one lattice per item: each
    # subset of the endogenous facts gets one naive fixpoint, however many read it
    evaluated = []
    real = oracles.naive_datalog_model

    def recorded(program, facts):
        evaluated.append(frozenset(facts))
        return real(program, facts)

    monkeypatch.setattr(oracles, "naive_datalog_model", recorded)
    readers = [
        "datalog.relevant-equal-causes",
        "datalog.solutions-match-enumeration",
        "datalog.necessary-sets-match-enumeration",
    ]
    entailed = 0
    for item in build_corpus(5, 40, 6):
        evaluated.clear()
        for property_id in readers:
            assert PROPERTIES[property_id](item, random.Random(0)) is None
        entailed += item.problem is not None
        assert len(set(evaluated)) == len(evaluated) == 2 ** len(item.instance.endogenous)
    assert entailed


# A fact no route can produce, added to one side of a comparison.
Z = fact("Z", "z")


def perturbed(value):
    """``value`` with one member more, or a responsibility one higher."""
    if isinstance(value, Fraction):
        return value + 1
    if isinstance(value, Mapping):
        return {**value, Z: frozenset({frozenset()})}
    if any(isinstance(v, Fact) for v in value):
        return frozenset(value) | {Z}
    return frozenset(value) | {frozenset({Z})}


# The two abduction oracles the harness reads off each item's shared
# fixpoint lattice, with the lattice method it calls for each.
LATTICE_READERS = {
    "solutions_by_enumeration": "solutions",
    "necessary_sets_by_enumeration": "necessary_sets",
}


def perturb(monkeypatch, name: str) -> None:
    if name in LATTICE_READERS:
        method = LATTICE_READERS[name]
        real = getattr(FixpointLattice, method)
        monkeypatch.setattr(FixpointLattice, method, lambda self: perturbed(real(self)))
        return
    real = getattr(checks, name)
    monkeypatch.setattr(checks, name, lambda *args: perturbed(real(*args)))


# Each property that only asks two routes to agree, with the function
# computing one of its sides.
AGREEMENTS = {
    "core.witnesses-match-enumeration": "witnesses_by_enumeration",
    "causality.causes-match-enumeration": "causes_by_enumeration",
    "repairs.removals-match-enumeration": "s_repair_removals_by_enumeration",
    "repairs.causes-from-repairs-agree": "causes_from_repairs",
    "repairs.c-repairs-rebuilt-from-top-causes": "c_repairs_from_most_responsible",
    "repairs.endogenous-only-filter": "endogenous_s_repairs",
    "diagnosis.matches-enumeration": "diagnoses_by_enumeration",
    "diagnosis.repair-bridge": "minimal_diagnoses",
    "datalog.solutions-match-enumeration": "solutions_by_enumeration",
    "datalog.necessary-sets-match-enumeration": "necessary_sets_by_enumeration",
    "datalog.necessary-sets-equal-diagnoses": "necessary_sets",
}


@pytest.mark.parametrize("property_id, side", sorted(AGREEMENTS.items()))
def test_an_agreement_fails_when_one_side_changes(monkeypatch, property_id, side):
    perturb(monkeypatch, side)
    monkeypatch.setattr(checks, "PROPERTIES", {property_id: PROPERTIES[property_id]})
    [report] = cross_check(seed=1, trials=20, max_size=5)
    assert report.property_id == property_id and not report.passed
    # the counterexample shows the extra member in input syntax
    for failure in report.failures:
        assert "Z(z)" in json.loads(failure)["detail"]


# Each fixture comparison, with the function computing its value and the
# start of the detail it gives when that value has one member more.
FIXTURE_COMPARISONS = [
    (
        "demo_values",
        "abductive_solutions",
        "solutions: {{R(a2, a1), S(a1)}, {R(a3, a3), S(a3)}, {Z(z)}} != ",
    ),
    ("demo_values", "actual_causes", "causes: {R(a2, a1), R(a3, a3), S(a1), S(a3), Z(z)}"),
    ("demo_values", "actual_causes", "responsibilities other than 1/2: {1} != {}"),
    ("demo_values", "necessary_sets", "necessary set sizes: {1, 2} != {2}"),
    ("demo_values", "s_repairs", "repair removals: {{R(a2, a1), R(a3, a3)}, "),
    ("demo_route_agreement", "causes_from_repairs", "serialized causes, direct vs via repairs: "),
    ("demo_route_agreement", "causes_via_diagnosis", "serialized causes, direct vs via diagnosis"),
    ("closure_values", "evaluate", "derived atoms: {T(a, b), T(a, c), T(b, c), Z(z), ans} != "),
    ("closure_values", "abductive_solutions", "solutions: {{E(a, b), E(b, c)}, {Z(z)}} != "),
    ("closure_values", "necessary_sets", "necessary sets: {{E(a, b)}, {E(b, c)}, {Z(z)}} != "),
    ("closure_values", "datalog_actual_causes", "causes: {E(a, b), E(b, c), Z(z)} != "),
    ("closure_values", "datalog_responsibility", "responsibility of E(a, b): 2 != 1"),
]


@pytest.mark.parametrize(
    "fixture, side, detail",
    FIXTURE_COMPARISONS,
    ids=[f"{f}-{s}-{d.split(':')[0]}" for f, s, d in FIXTURE_COMPARISONS],
)
def test_a_fixture_fails_when_one_value_changes(monkeypatch, fixture, side, detail):
    perturb(monkeypatch, side)
    failures = getattr(checks, f"_fixture_{fixture}")()
    assert any(f.startswith(detail) for f in failures), failures


FORCED_FAILURE = """
import json
from causelab import checks

real = checks.witnesses_by_enumeration
checks.witnesses_by_enumeration = lambda facts, query: real(facts, query) | {frozenset(facts)}
for report in checks.cross_check(1, 40, 7):
    for failure in report.failures:
        print(json.loads(failure)["detail"])
"""


def test_failure_details_do_not_depend_on_hash_order():
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", FORCED_FAILURE], capture_output=True, env=env, check=True
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert b"witnesses vs enumeration: " in outputs[0]
    assert b"Fact(" not in outputs[0]


UNITS = """
from causelab import Meter
from causelab.checks import cross_check

with Meter() as meter:
    cross_check(2, 40, 7)
print(meter.used)
"""


def test_the_harness_charges_alike_under_any_hash_seed():
    # eval_bcq stops at its first match, so the units spent before it
    # follow the order the facts are indexed in, which must not be set
    # iteration order (this corpus read 2,113 / 2,115 / 2,117 units when it was)
    src = str(Path(__file__).resolve().parents[1] / "src")
    used = set()
    for hash_seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", UNITS], capture_output=True, env=env, check=True, text=True
        )
        used.add(int(proc.stdout))
    assert len(used) == 1 and used.pop() > 0
