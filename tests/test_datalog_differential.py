"""Differential tests of goal-directed (magic-sets) Datalog evaluation
against the full model: ``minimal_supports`` and ``entails`` on the
goals' demand program must agree with the same computations over every
derivable fact, and ``entails`` with the naive fixpoint of
:mod:`causelab.oracles`.  Seeded programs cover linear, left-linear and
non-linear transitive closure, same-generation, constants in heads and
bodies, repeated variables, several goals at once, goals that are base
facts or not entailed, and head predicates among the facts.

The fixpoint and the support fixpoint are also checked against short
reference engines kept here in their earlier form (a fresh delta index
per round, every rule position tried, frozenset supports): same model,
same derivations in the same order, same meter units, on the seeded
cases and on chains and ladders above the corpus sizes.  Counters check
that the fixpoint's work follows its delta.  Minimal supports
are checked against a brute-force search over subsets of the base facts
where there are at most 12, and on chains and ladders above the corpus
sizes."""
from __future__ import annotations

import random
from itertools import chain, combinations, product

import pytest

from causelab import DatalogProgram, Fact, Meter, entails, evaluate, fact, minimal_supports, parse_program
from causelab import datalog, model
from causelab.hitting import minimize_family
from causelab.model import FactIndex, Variable, _plan, variable_positions
from causelab.oracles import naive_datalog_model

pytestmark = pytest.mark.differential

TC = "T(X, Y) :- E(X, Y).\n"

#: name -> (program text, EDB relations and arities, IDB goal relations and arities)
PROGRAMS = {
    "linear-tc": (TC + "T(X, Y) :- E(X, Z), T(Z, Y).", {"E": 2}, {"T": 2}),
    "left-linear-tc": (TC + "T(X, Y) :- T(X, Z), E(Z, Y).", {"E": 2}, {"T": 2}),
    "nonlinear-tc": (TC + "T(X, Y) :- T(X, Z), T(Z, Y).", {"E": 2}, {"T": 2}),
    "same-generation": (
        "SG(X, Y) :- Flat(X, Y).\nSG(X, Y) :- Up(X, U), SG(U, V), Down(V, Y).",
        {"Flat": 2, "Up": 2, "Down": 2},
        {"SG": 2},
    ),
    "constants": (
        TC
        + "T(X, Y) :- E(X, Z), T(Z, Y).\n"
        + "Loop(X, X) :- T(X, X).\n"
        + "P(X) :- T(X, c0).\n"
        + "Q(c1, Y) :- T(c2, Y), S(Y).\n"
        + "ans :- Loop(X, X), P(X).\n"
        + "ans :- Q(X, Y), P(Y).\n"
        + "ans :- T(X, Y), S(Y), S(X).",
        {"E": 2, "S": 1},
        {"T": 2, "Loop": 2, "P": 1, "Q": 2, "ans": 0},
    ),
}
NAMES = sorted(PROGRAMS)
SEEDS = range(60)


def _case(seed: int):
    """A program, 8-16 base facts over 5-7 constants and 1-3 goals: base
    facts, derived facts and arbitrary atoms of the derived relations.
    Every third case also puts facts of the program's first derived
    relation among the base facts."""
    rng = random.Random(seed)
    name = NAMES[seed % len(NAMES)]
    text, edb, idb = PROGRAMS[name]
    program = parse_program(text)
    consts = [f"c{i}" for i in range(rng.randint(5, 7))]
    relations = dict(edb)
    if seed % 3 == 0:
        head = next(iter(idb))
        relations[head] = idb[head]
    size = rng.randint(8, 16)
    facts: set = set()
    while len(facts) < size:
        relation = rng.choice(sorted(relations))
        facts.add(fact(relation, *rng.choices(consts, k=relations[relation])))
    derived = sorted(naive_datalog_model(program, facts) - facts)
    goals = set()
    for _ in range(rng.randint(1, 3)):
        kind = rng.random()
        if kind < 0.2:
            goals.add(rng.choice(sorted(facts)))
        elif kind < 0.6 and derived:
            goals.add(rng.choice(derived))
        else:
            relation = rng.choice(sorted(idb))
            goals.add(fact(relation, *rng.choices(consts, k=idb[relation])))
    return name, program, frozenset(facts), frozenset(goals)


CASES = [_case(seed) for seed in SEEDS]
IDS = [f"seed{seed}-{CASES[seed][0]}" for seed in SEEDS]


def _full_model(monkeypatch: pytest.MonkeyPatch, compute, *args):
    """``compute(*args)`` with the demand rewrite off: every derivable
    fact is derived."""
    with monkeypatch.context() as m:
        m.setattr(datalog, "_demand_program", lambda program, goals: (program, frozenset()))
        return compute(*args)


def test_cases_cover_goal_kinds():
    kinds = set()
    for name, program, facts, goals in CASES:
        _, magic = datalog._demand_program(program, frozenset((g.relation, g.arity) for g in goals))
        if magic:
            kinds.add((name, goals <= naive_datalog_model(program, facts)))
        # one relation demanded with two patterns of bound arguments
        relations = [m.split("/")[0] for m in magic]
        kinds |= {"several adornments"} if len(set(relations)) < len(relations) else set()
        kinds |= {"several goals"} if len(goals) > 1 else set()
        kinds |= {"base goal"} if goals & facts else set()
        heads = program.head_predicates()
        if any(f.relation in heads for f in facts):
            kinds.add("head among facts")
    assert kinds >= {(name, entailed) for name in NAMES for entailed in (True, False)}
    assert kinds >= {"several adornments", "several goals", "base goal", "head among facts"}


@pytest.mark.parametrize("name, program, facts, goals", CASES, ids=IDS)
def test_goal_directed_matches_full_model(name, program, facts, goals, monkeypatch):
    entailed = goals <= naive_datalog_model(program, facts)
    assert entails(program, facts, goals) == entailed
    assert _full_model(monkeypatch, entails, program, facts, goals) == entailed
    supports = minimal_supports(program, facts, goals)
    assert supports == _full_model(monkeypatch, minimal_supports, program, facts, goals)
    assert bool(supports) == entailed


@pytest.mark.parametrize("name, program, facts, goals", CASES, ids=IDS)
def test_each_goal_alone_matches_full_model(name, program, facts, goals, monkeypatch):
    for goal in sorted(goals):
        assert minimal_supports(program, facts, {goal}) == _full_model(
            monkeypatch, minimal_supports, program, facts, {goal}
        )


def _chain(n: int) -> tuple[DatalogProgram, list]:
    edges = [fact("E", f"v{i}", f"v{i + 1}") for i in range(n)]
    program = parse_program(TC + f"T(X, Y) :- E(X, Z), T(Z, Y).\nans :- T(v0, v{n}).")
    return program, edges


def test_goal_directed_work_is_linear_on_a_chain(monkeypatch):
    # the full model of an 80-edge chain holds 80 * 81 / 2 = 3,240 T facts
    # and ans; the goal needs T(vi, v80) and its demand M(vi, v80) only
    n = 80
    program, edges = _chain(n)
    derived = []
    seminaive = datalog._seminaive

    def counted(rules, facts, meter):
        facts = list(facts)
        model, derivations = seminaive(rules, facts, meter)
        derived.append(len(model) - len(facts))
        return model, derivations

    monkeypatch.setattr(datalog, "_seminaive", counted)
    goal = {fact("ans")}
    assert minimal_supports(program, edges, goal) == {frozenset(edges)}
    assert _full_model(monkeypatch, minimal_supports, program, edges, goal) == {frozenset(edges)}
    demand, full = derived
    assert full == n * (n + 1) // 2 + 1
    assert demand <= 2 * n + 2


def test_derived_facts_skip_the_field_check(monkeypatch):
    # a derived head is built from checked parts, so Fact.__new__ never runs
    program, edges = _chain(20)
    goal = {fact("ans")}
    built = []
    new = Fact.__new__

    def counted(cls, *args):
        built.append(args)
        return new(cls, *args)

    monkeypatch.setattr(Fact, "__new__", staticmethod(counted))
    supports = minimal_supports(program, edges, goal)
    model = evaluate(program, edges)
    assert built == []
    assert supports == {frozenset(edges)}
    assert len(model) == len(edges) + 20 * 21 // 2 + 1
    assert {type(f) for f in model.union(*supports)} == {Fact}


def test_rewrite_adds_one_guard_last_to_each_rule():
    program, _ = _chain(5)
    rewritten, magic = datalog._demand_program(program, frozenset({("ans", 0)}))
    originals = {(r.head, r.body) for r in program.rules}
    guarded = [r for r in rewritten.rules if r.head.relation not in magic]
    assert {(r.head, r.body[:-1]) for r in guarded} == originals
    assert all(r.body[-1].relation in magic for r in rewritten.rules)
    assert not any(name in program.head_predicates() for name in magic)


@pytest.mark.parametrize(
    "text",
    ["ans :- R(X, Y), S(Y).", TC + "T(X, Y) :- T(X, Z), E(Z, Y).\nans :- T(X, Y)."],
    ids=["no-idb-body-atom", "left-linear-tc-all-free"],
)
def test_rewrite_is_the_identity_with_nothing_bound(text):
    # no IDB body atom gets a bound argument, so there is nothing to prune;
    # right-linear TC would bind Z in T(Z, Y) from E(X, Z)
    program = parse_program(text)
    assert datalog._demand_program(program, frozenset({("ans", 0)})) == (program, frozenset())


def _reference_join(index, atoms, meter, first, delta_index, delta):
    """The semi-naive join term as the engine once ran it: atom ``first``
    probes an index of the delta, earlier atoms skip delta facts."""
    steps, init = _plan(atoms, first)
    vals = list(init)
    matched = [None] * len(atoms)

    def extend(i):
        if i == len(steps):
            yield tuple(matched)
            return
        k, group, positions, key_of, binds, checks = steps[i]
        source = delta_index if k == first else index
        rows = source.table(group, positions) if positions else source.groups.get(group, ())
        candidates = rows if key_of is None else rows.get(key_of(vals), ())
        meter.charge(len(candidates))
        for f in candidates:
            if (k < first and f in delta) or any(f.args[p] != f.args[q] for p, q in checks):
                continue
            for p, slot in binds:
                vals[slot] = f.args[p]
            matched[k] = f
            yield from extend(i + 1)

    return extend(0)


def _reference_seminaive(program, facts, meter):
    """The fixpoint as it was: a fresh delta index each round and every
    (rule, position) tried in order."""
    model = set(facts)
    full = FactIndex(model)
    delta = set(model)
    derivations = {}
    while delta:
        delta_index = FactIndex(delta)
        fresh = set()
        for r in program.rules:
            sources = variable_positions(r.body)
            head = [sources[t] if isinstance(t, Variable) else (-1, t) for t in r.head.terms]
            groups = [(a.relation, a.arity) for a in r.body]
            for i, group in enumerate(groups):
                if not delta_index.size(group) or any(
                    full.size(g) == delta_index.size(g) for g in groups[:i]
                ):
                    continue
                for m in _reference_join(full, r.body, meter, i, delta_index, delta):
                    derived = Fact(r.head.relation, [p if k < 0 else m[k].args[p] for k, p in head])
                    derivations.setdefault(derived, set()).add(frozenset(m))
                    if derived not in model:
                        fresh.add(derived)
        model |= fresh
        full.add(fresh)
        delta = fresh
    return frozenset(model), derivations


def _reference_supports(program, facts, goals, meter):
    """Minimal supports as they were: a fixpoint over frozensets of facts."""
    base, goals = frozenset(facts), frozenset(goals)
    entailed, derivations = datalog._demanded(program, base, goals, meter)
    if not entailed:
        return frozenset()
    needed, stack = set(), [g for g in goals if g in derivations]
    while stack:
        head = stack.pop()
        if head not in needed:
            needed.add(head)
            stack.extend(b for body in derivations[head] for b in body if b in derivations)
    heads = [h for h in derivations if h in needed]

    def combine(factors):
        for combo in product(*factors):
            meter.charge()
            yield frozenset().union(*combo)

    supports = {f: frozenset({frozenset({f})}) for f in base}
    for head in heads:
        supports.setdefault(head, frozenset())
    changed = True
    while changed:
        changed = False
        for head in heads:
            old = supports[head]
            combos = (combine([supports[b] for b in sorted(body)]) for body in derivations[head])
            supports[head] = minimize_family(chain(old, *combos))
            changed = changed or supports[head] != old
    return minimize_family(combine([supports.get(g, frozenset()) for g in sorted(goals)]))


def _supports_by_subsets(program, facts, goals):
    """Minimal supports by brute force: subsets of the base facts by
    increasing size under the naive fixpoint, supersets of a support skipped."""
    base = sorted(facts)
    found = []
    for size in range(len(base) + 1):
        for combo in combinations(range(len(base)), size):
            mask = sum(1 << i for i in combo)
            if not any(f & mask == f for f in found) and goals <= naive_datalog_model(
                program, [base[i] for i in combo]
            ):
                found.append(mask)
    return {frozenset(base[i] for i in range(len(base)) if m >> i & 1) for m in found}


def _check_against_reference(program, facts, goals, monkeypatch):
    calls = []
    seminaive = datalog._seminaive

    def recorded(rules, start, meter):
        calls.append((rules, start))
        return seminaive(rules, start, meter)

    with monkeypatch.context() as m:
        m.setattr(datalog, "_seminaive", recorded)
        evaluate(program, facts)
        with Meter() as meter:
            supports = minimal_supports(program, facts, goals)
    with Meter() as reference:
        assert supports == _reference_supports(program, facts, goals, reference)
    assert meter.used == reference.used
    assert len(calls) == 2
    for rules, start in calls:
        got, want = Meter(), Meter()
        model, derivations = seminaive(rules, start, got)
        ref_model, ref_derivations = _reference_seminaive(rules, start, want)
        assert model == ref_model
        assert list(derivations.items()) == list(ref_derivations.items())
        assert got.used == want.used


@pytest.mark.parametrize("name, program, facts, goals", CASES, ids=IDS)
def test_engines_match_the_reference(name, program, facts, goals, monkeypatch):
    _check_against_reference(program, facts, goals, monkeypatch)
    if len(facts) <= 12:
        assert minimal_supports(program, facts, goals) == _supports_by_subsets(program, facts, goals)


def test_engines_match_the_reference_on_more_seeds(monkeypatch):
    for seed in range(len(SEEDS), 400):
        _, program, facts, goals = _case(seed)
        _check_against_reference(program, facts, goals, monkeypatch)


def test_brute_force_runs_on_small_cases():
    small = [name for name, _, facts, _ in CASES if len(facts) <= 12]
    assert len(small) >= 20 and set(small) == set(NAMES)


@pytest.mark.parametrize("n", [20, 40, 80, 160])
def test_a_long_chain_has_one_support_at_linear_cost(n, monkeypatch):
    program, edges = _chain(n)
    with Meter() as meter:
        assert minimal_supports(program, edges, {fact("ans")}) == {frozenset(edges)}
    assert meter.used == 11 * n + 7
    _check_against_reference(program, edges, {fact("ans")}, monkeypatch)


def test_work_follows_the_delta(monkeypatch):
    # counted, not timed: each rule position's join is prepared once, each
    # index table is built once and then grows by new facts only, and a
    # round joins a position only with delta facts of the position's group
    program, edges = _chain(80)
    prepared, calls, indexes, tables, fills = [], [], [], {}, []

    class CountedJoin(model.Join):
        __slots__ = ("group",)

        def __init__(self, index, atoms, meter, first=None):
            prepared.append((atoms, first))
            self.group = (atoms[first].relation, atoms[first].arity)
            super().__init__(index, atoms, meter, first)

        def __call__(self, rows=(), skip=frozenset()):
            calls.append((self.group, rows, skip))
            return super().__call__(rows, skip)

    class CountedIndex(FactIndex):
        __slots__ = ()

        def __init__(self, facts=()):
            indexes.append(self)
            super().__init__(facts)

        def table(self, group, positions):
            table = super().table(group, positions)
            tables.setdefault((group, positions), []).append(table)
            return table

    fill = model._fill

    def counted_fill(table, key_of, facts):
        facts = list(facts)
        fills.append((table, len(facts)))
        fill(table, key_of, facts)

    monkeypatch.setattr(datalog, "Join", CountedJoin)
    monkeypatch.setattr(datalog, "FactIndex", CountedIndex)
    monkeypatch.setattr(model, "_fill", counted_fill)
    with Meter() as meter:
        assert minimal_supports(program, edges, {fact("ans")}) == {frozenset(edges)}
    assert meter.used == 11 * 80 + 7
    [index] = indexes
    assert prepared and len(set(prepared)) == len(prepared)
    # a round of the chain holds one new fact, and joins two or three positions
    assert len(calls) <= 3 * 2 * (80 + 1)
    for group, rows, skip in calls:
        assert rows and {(f.relation, f.arity) for f in rows} == {group} and set(rows) <= skip
    kept = [handed_out[0] for handed_out in tables.values()]
    assert kept and all(any(t is k for k in kept) for t, _ in fills)
    for (group, positions), handed_out in tables.items():
        table = handed_out[0]
        assert all(t is table for t in handed_out)
        # built once over the group, then filled with each later round's new facts
        grown = [n for t, n in fills if t is table]
        assert all(grown[1:]) and sum(grown) == index.size(group) == sum(map(len, table.values()))


def _ladder(rungs: int) -> tuple[DatalogProgram, list]:
    """Two rails of ``rungs - 1`` edges joined by a rung each way at every
    position; the goal runs from the start of one rail to the end of the
    other."""
    upper = [f"u{i}" for i in range(rungs)]
    lower = [f"l{i}" for i in range(rungs)]
    pairs = list(zip(upper, upper[1:])) + list(zip(lower, lower[1:]))
    pairs += list(zip(upper, lower)) + list(zip(lower, upper))
    program = parse_program(TC + f"T(X, Y) :- E(X, Z), T(Z, Y).\nans :- T(u0, l{rungs - 1}).")
    return program, [fact("E", a, b) for a, b in pairs]


@pytest.mark.parametrize("rungs, units", [(4, 295), (5, 489), (6, 1041)])
def test_ladders_match_the_full_model(rungs, units, monkeypatch):
    # a support is a path that may take the rung at each position and
    # takes an odd number in all: 2 ** (rungs - 1) of them
    program, edges = _ladder(rungs)
    goal = {fact("ans")}
    with Meter() as meter:
        supports = minimal_supports(program, edges, goal)
    assert meter.used == units
    assert supports == _full_model(monkeypatch, minimal_supports, program, edges, goal)
    assert len(supports) == 2 ** (rungs - 1)
    _check_against_reference(program, edges, goal, monkeypatch)
