"""Brute-force reference implementations.

These transcribe the definitions directly, walking subset lattices and
naive fixpoints, and exist so the optimized engines can be checked
against something that is obviously right.  They are independent of the
hitting-set search, the semi-naive fixpoint and the indexed join engine:
queries and rule bodies are evaluated by the plain nested-loop join
below, whose :func:`holds_by_nested_loops` is also the cross-check
harness's independent evaluator.  The only code they share with the
engines is the antichain filters
:func:`~causelab.hitting.minimize_family` and
:func:`~causelab.hitting.maximize_family`, which
``tests/test_hitting_differential.py`` checks against the pairwise
definition.  Each oracle checks its query's schema once per call,
before its subset walk, not once per subset.  They only make sense at
small sizes.
"""
from __future__ import annotations

from functools import cache
from itertools import combinations
from typing import Callable, Hashable, Iterable, Iterator, TypeVar

from .abduction import AbductionProblem
from .causality import ContingencySet
from .diagnosis import DiagnosisProblem
from .errors import BudgetError
from .hitting import maximize_family, minimize_family
from .model import (
    Atom,
    ConjunctiveQuery,
    DenialConstraint,
    Fact,
    Instance,
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


T = TypeVar("T", bound=Hashable)


def _guard(n: int, cap: int, what: str) -> None:
    if n > cap:
        raise BudgetError(f"{what} oracle is capped at {cap} facts, got {n}", budget=cap)


def subsets_of(items: Iterable[T]) -> Iterator[frozenset[T]]:
    """All subsets of ``items``, smallest first, deterministic within a size."""
    pool = sorted(set(items))
    for size in range(len(pool) + 1):
        for combo in combinations(pool, size):
            yield frozenset(combo)


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


def holds_by_nested_loops(facts: Iterable[Fact], query: ConjunctiveQuery) -> bool:
    """Whether the query holds on ``facts``, by the nested-loop join."""
    return next(valuations_by_nested_loops(facts, query.atoms), None) is not None


def witnesses_by_enumeration(
    facts: Iterable[Fact], query: ConjunctiveQuery
) -> frozenset[frozenset[Fact]]:
    """Minimal support sets found by walking the subset lattice."""
    pool = frozenset(facts)
    _guard(len(pool), LATTICE_CAP, "witness")
    return minimize_family(w for w in subsets_of(pool) if holds_by_nested_loops(w, query))


def _contingency_sets(
    instance: Instance, t: Fact, holds: Callable[[frozenset[Fact]], bool]
) -> Iterator[ContingencySet]:
    """The contingency sets of ``t``: the sets of endogenous facts other
    than ``t`` whose removal keeps the answer (``holds``) and whose removal
    together with ``t`` loses it.  ``t`` is an actual cause iff there is one."""
    full = instance.facts
    return (
        gamma
        for gamma in subsets_of(instance.endogenous - {t})
        if holds(full - gamma) and not holds(full - gamma - {t})
    )


def causes_by_enumeration(
    instance: Instance, query: ConjunctiveQuery
) -> dict[Fact, frozenset[ContingencySet]]:
    """Actual causes, each mapped to its minimal contingency sets, found by
    trying every contingency candidate."""
    _guard(len(instance.endogenous), LATTICE_CAP, "cause")
    check_query_schema(query, instance.schemas)
    holds = cache(lambda fs: holds_by_nested_loops(fs, query))
    causes = {}
    for t in sorted(instance.endogenous):
        gammas = list(_contingency_sets(instance, t, holds))
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
    for c in constraint_list:
        check_query_schema(c, instance.schemas)
    consistent = [
        kept
        for kept in subsets_of(facts)
        if not any(holds_by_nested_loops(kept, c) for c in constraint_list)
    ]
    return frozenset(facts - kept for kept in maximize_family(consistent))


def diagnoses_by_enumeration(problem: DiagnosisProblem) -> frozenset[frozenset[Fact]]:
    """Minimal falsifying deletion sets, by trying every endogenous subset."""
    instance = problem.instance
    _guard(len(problem.abnormal_scope), LATTICE_CAP, "diagnosis")
    check_query_schema(problem.query, instance.schemas)
    falsifying = [
        delta
        for delta in subsets_of(problem.abnormal_scope)
        if not holds_by_nested_loops(instance.facts - delta, problem.query)
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
    _guard(len(instance.endogenous), LATTICE_CAP, "Datalog cause")
    goal = program.answer_atom()
    derives = cache(lambda fs: goal in naive_datalog_model(program, fs))
    return frozenset(
        t
        for t in instance.endogenous
        if next(_contingency_sets(instance, t, derives), None) is not None
    )


def _explains(problem: AbductionProblem, delta: frozenset[Fact]) -> bool:
    """Whether the abducibles ``delta``, with the background, entail the
    observations under the naive fixpoint.  Each oracle below asks once
    per subset of the abducibles, so there is nothing to memoise."""
    return problem.obs <= naive_datalog_model(problem.program, problem.edb | delta)


def solutions_by_enumeration(problem: AbductionProblem) -> frozenset[frozenset[Fact]]:
    """Abductive solutions by trying every subset of the abducibles."""
    _guard(len(problem.hyp), ABDUCIBLE_CAP, "solution")
    return minimize_family(d for d in subsets_of(problem.hyp) if _explains(problem, d))


def necessary_sets_by_enumeration(problem: AbductionProblem) -> frozenset[frozenset[Fact]]:
    """Necessary hypothesis sets by the definition: remove the candidate
    set and check that no solution survives."""
    _guard(len(problem.hyp), ABDUCIBLE_CAP, "necessary set")
    return minimize_family(
        n for n in subsets_of(problem.hyp) if not _explains(problem, problem.hyp - n)
    )
