"""The request-scoped families: inside one ``with Meter`` block the
witnesses of one query over one fact set, the minimal supports of one
goal set and the component split of one hitting-set family are computed
once (:meth:`causelab.budget.Meter.once`).  A later call with equal
inputs runs no join and no fixpoint, charges nothing for them and gives
the same answer; outside any block nothing is kept; a computation that
raises leaves no entry; and a request's units and bytes do not depend
on what an earlier request computed.  The keys are hashed values, so CI
runs this file under more than one hash seed."""
from __future__ import annotations

import io
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from causelab import BudgetError, Meter, cli, datalog, hitting, model
from causelab.abduction import datalog_actual_causes, datalog_responsibility
from causelab.causality import actual_causes, minimal_contingency_sets, responsibility
from causelab.checks import cross_check, fixture_checks
from causelab.datalog import minimal_supports
from causelab.errors import SchemaError
from causelab.model import ConjunctiveQuery, Instance, RelationSchema, atom, fact, witnesses

S1 = fact("S", "a1")


@pytest.fixture
def counts(monkeypatch):
    """Calls of the join, of the fixpoint and of the component split."""
    seen = {"join": 0, "fixpoint": 0, "split": 0}

    def count(module, name, key):
        inner = getattr(module, name)

        def counted(*args):
            seen[key] += 1
            return inner(*args)

        monkeypatch.setattr(module, name, counted)

    count(model, "matches", "join")
    count(datalog, "_seminaive", "fixpoint")
    count(hitting, "_numbered", "split")
    return seen


def _units(call):
    with Meter() as m:
        answer = call()
    return answer, m.used


# each per-tuple route, and the family it is read off
ROUTES = {
    "responsibility": (
        lambda d0, q0, prog0: responsibility(d0, q0, S1),
        lambda d0, q0, prog0: witnesses(d0.facts, q0),
    ),
    "minimal_contingency_sets": (
        lambda d0, q0, prog0: minimal_contingency_sets(d0, q0, S1),
        lambda d0, q0, prog0: witnesses(d0.facts, q0),
    ),
    "datalog_responsibility": (
        lambda d0, q0, prog0: datalog_responsibility(prog0, d0, S1),
        lambda d0, q0, prog0: minimal_supports(prog0, d0.facts, {prog0.answer_atom()}),
    ),
}


@pytest.mark.parametrize("name", sorted(ROUTES))
def test_a_second_call_in_one_block_runs_no_join_and_no_fixpoint(name, d0, q0, prog0, counts):
    route, family = ROUTES[name]
    alone, alone_units = _units(lambda: route(d0, q0, prog0))
    family_units = _units(lambda: family(d0, q0, prog0))[1]
    with Meter() as m:
        first = route(d0, q0, prog0)
        first_units = m.used
        before = dict(counts)
        second = route(d0, q0, prog0)
    assert second == first == alone
    assert first_units == alone_units
    assert counts == before
    # the second call charges its own hitting-set search and no family
    assert 0 < family_units < first_units
    assert m.used - first_units == first_units - family_units


def test_the_routes_of_one_request_share_one_family(d0, q0, prog0, counts):
    with Meter():
        for t in sorted(d0.endogenous):
            responsibility(d0, q0, t)
            minimal_contingency_sets(d0, q0, t)
            datalog_responsibility(prog0, d0, t)
        datalog_actual_causes(prog0, d0)
    # prog0 derives its answer by q0, so the witness parts and the support
    # parts are one family, split once
    assert counts == {"join": 1, "fixpoint": 1, "split": 1}


def _per_tuple(d0, q0, prog0):
    return [
        (
            responsibility(d0, q0, t),
            minimal_contingency_sets(d0, q0, t),
            datalog_responsibility(prog0, d0, t),
        )
        for t in sorted(d0.endogenous)
    ]


def test_a_shared_split_answers_every_tuple_as_a_fresh_one(d0, q0, prog0):
    alone = _per_tuple(d0, q0, prog0)
    with Meter():
        shared = _per_tuple(d0, q0, prog0)
    assert shared == alone
    assert {r for r, _, _ in alone} > {Fraction(0)}


def test_separate_blocks_charge_alike(d0, q0, prog0):
    assert _units(lambda: _per_tuple(d0, q0, prog0)) == _units(lambda: _per_tuple(d0, q0, prog0))


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--seed", "3", "--trials", "40"],
        ["responsibility", "-i", "d0.json", "-q", "q0.dl", "--tuple", "S(a1)"],
        ["abduce", "-i", "d0.json", "-p", "prog0.dl"],
    ],
    ids=["check", "responsibility", "abduce"],
)
def test_successive_requests_charge_and_print_alike(argv, data_dir, monkeypatch):
    monkeypatch.chdir(data_dir)
    used = []
    leave = Meter.__exit__

    def recorded(self, *exc_info):
        used.append(self.used)
        return leave(self, *exc_info)

    monkeypatch.setattr(Meter, "__exit__", recorded)
    printed = []
    for _ in range(2):
        out = io.StringIO()
        with redirect_stdout(out):
            assert cli.main(argv) == 0
        printed.append(out.getvalue())
    assert printed[0] == printed[1]
    assert len(used) == 2 and used[0] == used[1] > 0


def test_outside_a_block_nothing_is_kept(d0, q0, prog0, counts):
    goals = {prog0.answer_atom()}
    for _ in range(2):
        witnesses(d0.facts, q0)
        responsibility(d0, q0, S1)
        minimal_supports(prog0, d0.facts, goals)
    assert counts == {"join": 4, "fixpoint": 2, "split": 2}


def test_a_budget_error_leaves_no_entry(d0, q0, prog0, counts):
    goals = {prog0.answer_atom()}
    expected = witnesses(d0.facts, q0), minimal_supports(prog0, d0.facts, goals)
    before = dict(counts)
    with Meter(1) as m:
        with pytest.raises(BudgetError):
            witnesses(d0.facts, q0)
        with pytest.raises(BudgetError):
            minimal_supports(prog0, d0.facts, goals)
        m.limit = 10**9
        assert (witnesses(d0.facts, q0), minimal_supports(prog0, d0.facts, goals)) == expected
    # each family is computed again after its failed attempt
    assert counts["join"] - before["join"] == 2
    assert counts["fixpoint"] - before["fixpoint"] == 2


def test_a_raising_computation_leaves_no_entry():
    calls = []

    def compute():
        calls.append(None)
        if len(calls) == 1:
            raise SchemaError("undeclared relation")
        return "value"

    with Meter() as m:
        with pytest.raises(SchemaError):
            m.once("key", compute)
        assert m.once("key", compute) == "value"
        assert m.once("key", compute) == "value"
    assert len(calls) == 2


def test_a_schema_error_is_raised_on_every_call(d0, q0, counts):
    # the witnesses over d0's facts are kept once the instance that
    # declares P has asked for them, yet a route checks the query against
    # its own instance's schemas before it reads them, and d0 has no P
    query = ConjunctiveQuery((*q0.atoms, atom("P", "X")))
    declared = Instance(d0.schemas | {RelationSchema("P", 1)}, d0.endogenous, d0.exogenous)
    undeclared = r"^query atom P\(X\) uses the undeclared relation 'P'$"
    with Meter():
        assert not actual_causes(declared, query)
        for _ in range(2):
            with pytest.raises(SchemaError, match=undeclared):
                actual_causes(d0, query)
        assert witnesses(d0.facts, query) == frozenset()
    assert counts["join"] == 1


def _harness(seed):
    return fixture_checks() + cross_check(seed, 200, 7) + cross_check(seed, 200, 12)


@pytest.mark.differential
@pytest.mark.parametrize("seed", [1, 2])
def test_the_harness_reports_alike_in_one_block_and_outside(seed):
    outside = _harness(seed)
    with Meter(10**9):
        inside = _harness(seed)
    assert inside == outside
    assert all(r.passed for r in outside)
