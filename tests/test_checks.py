from __future__ import annotations

import gc
import json
import random
import weakref

from causelab import checks
from causelab.checks import (
    PROPERTIES,
    build_corpus,
    cross_check,
    fixture_checks,
    random_instance,
    random_query,
)
from causelab.model import eval_bcq


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
        eval_bcq(inst.facts, query, inst.schemas)  # must not raise


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
