"""Brute-force reference implementations.

These transcribe the definitions directly, walking subset lattices and
naive fixpoints, and exist so the optimized engines can be checked
against something that is obviously right.  They are deliberately
independent of the hitting-set and semi-naive code paths and of the
indexed join engine: queries and rule bodies are evaluated by the plain
nested-loop join below.  They only make sense at small sizes.
"""
from __future__ import annotations

from typing import Iterable, Iterator

from .abduction import AbductionProblem
from .causality import ContingencySet
from .diagnosis import DiagnosisProblem
from .errors import BudgetError
from .hitting import maximize_family, minimize_family, subsets_of
from .model import (
    Atom,
    ConjunctiveQuery,
    DenialConstraint,
    Fact,
    Instance,
    RelationSchema,
    Variable,
    check_query_schema,
    ground_atom,
)
from .datalog import DatalogProgram

#: The most facts a subset-lattice walk accepts: LATTICE_CAP for the
#: instance-level oracles, HITTING_CAP for a hitting-set family's union
#: and ABDUCIBLE_CAP for the abducibles of an abduction problem.
LATTICE_CAP = 12
HITTING_CAP = 20
ABDUCIBLE_CAP = 16


def _guard(n: int, cap: int, what: str) -> None:
    if n > cap:
        raise BudgetError(f"{what} oracle is capped at {cap} facts, got {n}", budget=cap)


def valuations_by_nested_loops(
    facts: Iterable[Fact], atoms: tuple[Atom, ...]
) -> Iterator[dict[Variable, str]]:
    """Bindings mapping every atom onto a fact, by nested loops over all facts."""
    pool = list(facts)

    def extend(i: int, binding: dict[Variable, str]) -> Iterator[dict[Variable, str]]:
        if i == len(atoms):
            yield binding
            return
        a = atoms[i]
        for f in pool:
            if f.relation != a.relation or len(f.args) != len(a.terms):
                continue
            out = dict(binding)
            for t, v in zip(a.terms, f.args):
                if isinstance(t, Variable):
                    t = out.setdefault(t, v)  # the value the variable is bound to
                if t != v:
                    break
            else:
                yield from extend(i + 1, out)

    return extend(0, {})


def _eval_bcq(
    facts: Iterable[Fact], query: ConjunctiveQuery, schemas: frozenset[RelationSchema] | None = None
) -> bool:
    check_query_schema(query, schemas)
    return next(valuations_by_nested_loops(facts, query.atoms), None) is not None


def witnesses_by_enumeration(
    facts: Iterable[Fact], query: ConjunctiveQuery
) -> frozenset[frozenset[Fact]]:
    """Minimal support sets found by walking the subset lattice."""
    pool = frozenset(facts)
    _guard(len(pool), LATTICE_CAP, "witness")
    return minimize_family(w for w in subsets_of(pool) if _eval_bcq(w, query))


def causes_by_enumeration(
    instance: Instance, query: ConjunctiveQuery
) -> dict[Fact, frozenset[ContingencySet]]:
    """Actual causes, each mapped to its minimal contingency sets, found by
    trying every contingency candidate."""
    _guard(len(instance.endogenous), LATTICE_CAP, "cause")
    cache: dict[frozenset[Fact], bool] = {}
    full = instance.facts

    def holds(fs: frozenset[Fact]) -> bool:
        got = cache.get(fs)
        if got is None:
            got = _eval_bcq(fs, query, instance.schemas)
            cache[fs] = got
        return got

    causes = {}
    for t in sorted(instance.endogenous):
        gammas = [
            gamma
            for gamma in subsets_of(instance.endogenous - {t})
            if holds(full - gamma) and not holds(full - gamma - {t})
        ]
        if gammas:
            causes[t] = minimize_family(gammas)
    return causes


def s_repair_removals_by_enumeration(
    instance: Instance, constraints: Iterable[DenialConstraint]
) -> frozenset[frozenset[Fact]]:
    """Removal sets of subset-maximal consistent sub-instances, by lattice walk."""
    facts = instance.facts
    _guard(len(facts), LATTICE_CAP, "repair")
    constraint_list = list(constraints)
    consistent = [
        kept
        for kept in subsets_of(facts)
        if not any(_eval_bcq(kept, c, instance.schemas) for c in constraint_list)
    ]
    return frozenset(facts - kept for kept in maximize_family(consistent))


def diagnoses_by_enumeration(problem: DiagnosisProblem) -> frozenset[frozenset[Fact]]:
    """Minimal falsifying deletion sets, by trying every endogenous subset."""
    instance = problem.instance
    _guard(len(problem.abnormal_scope), LATTICE_CAP, "diagnosis")
    falsifying = [
        delta
        for delta in subsets_of(problem.abnormal_scope)
        if not _eval_bcq(instance.facts - delta, problem.query, instance.schemas)
    ]
    return minimize_family(falsifying)


def minimal_hitting_sets_by_enumeration(family: Iterable[Iterable[Fact]]) -> frozenset[frozenset]:
    """Minimal hitting sets by trying every subset of the family's union."""
    sets = [frozenset(s) for s in family]
    universe = frozenset().union(*sets) if sets else frozenset()
    _guard(len(universe), HITTING_CAP, "hitting set")
    hitting = [h for h in subsets_of(universe) if all(h & s for s in sets)]
    return minimize_family(hitting)


def naive_datalog_model(program: DatalogProgram, facts: Iterable[Fact]) -> frozenset[Fact]:
    """Naive fixpoint: re-derive everything from the whole model each round."""
    model: set[Fact] = set(facts)
    while True:
        fresh: set[Fact] = set()
        for r in program.rules:
            for val in valuations_by_nested_loops(model, r.body):
                head = ground_atom(r.head, val)
                if head not in model:
                    fresh.add(head)
        if not fresh:
            return frozenset(model)
        model |= fresh


def datalog_causes_by_enumeration(program: DatalogProgram, instance: Instance) -> frozenset[Fact]:
    """Actual causes of the answer atom found by trying every contingency
    candidate against the naive fixpoint."""
    endo = instance.endogenous
    _guard(len(endo), LATTICE_CAP, "Datalog cause")
    goal = program.answer_atom()
    full = instance.facts
    cache: dict[frozenset[Fact], bool] = {}

    def derives(fs: frozenset[Fact]) -> bool:
        got = cache.get(fs)
        if got is None:
            got = goal in naive_datalog_model(program, fs)
            cache[fs] = got
        return got

    return frozenset(
        t
        for t in endo
        if any(
            derives(full - gamma) and not derives(full - gamma - {t})
            for gamma in subsets_of(endo - {t})
        )
    )


def _naive_entails(program: DatalogProgram, facts: frozenset[Fact], obs: frozenset[Fact]) -> bool:
    return obs <= naive_datalog_model(program, facts)


def solutions_by_enumeration(problem: AbductionProblem) -> frozenset[frozenset[Fact]]:
    """Abductive solutions by trying every subset of the abducibles."""
    _guard(len(problem.hyp), ABDUCIBLE_CAP, "solution")
    cache: dict[frozenset[Fact], bool] = {}

    def explains(delta: frozenset[Fact]) -> bool:
        got = cache.get(delta)
        if got is None:
            got = _naive_entails(problem.program, problem.edb | delta, problem.obs)
            cache[delta] = got
        return got

    return minimize_family(d for d in subsets_of(problem.hyp) if explains(d))


def necessary_sets_by_enumeration(problem: AbductionProblem) -> frozenset[frozenset[Fact]]:
    """Necessary hypothesis sets by the definition: remove the candidate
    set and check that no solution survives."""
    _guard(len(problem.hyp), ABDUCIBLE_CAP, "necessary set")
    cache: dict[frozenset[Fact], bool] = {}

    def unexplainable(candidate: frozenset[Fact]) -> bool:
        remaining = problem.hyp - candidate
        got = cache.get(remaining)
        if got is None:
            got = not _naive_entails(problem.program, problem.edb | remaining, problem.obs)
            cache[remaining] = got
        return got

    return minimize_family(n for n in subsets_of(problem.hyp) if unexplainable(n))
