"""Brute-force reference implementations.

These transcribe the definitions directly and exist so the optimized
engines can be checked against something that is obviously right.  Each
oracle walks a subset lattice: the subsets of a sorted pool of facts,
numbered as int masks (bit ``i`` for the ``i``-th fact), every one of
which it visits.  It reads one truth table over the lattice, built once
per call:

* the instance-level oracles (witnesses, causes, S-repair removals,
  diagnoses) run the plain nested-loop join below once per query or
  constraint, on all the instance's facts, and read "the query holds on
  subset ``m``" as "some valuation's image lies within ``m``": a
  valuation into a subset is exactly a valuation into the whole
  instance whose image lies in that subset, so this is the definition,
  not a shortcut;
* the Datalog oracles read a :class:`FixpointLattice`: one naive
  fixpoint per subset of the abducibles, which all three can share.

A removal is read off the table reversed, since reversing ``2**n``
entries maps each mask to its complement.  Antichains are taken over the
masks by the pairwise definition, and frozensets are built only for the
answers.  The oracles share no code with the engines: not the
hitting-set search, the semi-naive fixpoint, the indexed join or the
antichain filters, and keep no state between calls.
:func:`holds_by_nested_loops` is also the cross-check harness's
independent per-subset evaluator.  Each oracle checks its query's schema
once per call, before its walk.  They only make sense at small sizes.
"""
from __future__ import annotations

from functools import cached_property, reduce
from itertools import combinations, compress
from operator import not_, or_
from typing import Hashable, Iterable, Iterator, Sequence, TypeAlias, TypeVar

from .abduction import AbductionProblem
from .diagnosis import DiagnosisProblem
from .errors import BudgetError
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
FactSet: TypeAlias = frozenset[Fact]


def _guard(n: int, cap: int, what: str) -> None:
    if n > cap:
        raise BudgetError(f"{what} oracle is capped at {cap} facts, got {n}", budget=cap)


def subsets_of(items: Iterable[T]) -> Iterator[frozenset[T]]:
    """All subsets of ``items``, smallest first, deterministic within a size."""
    pool = sorted(set(items))
    for size in range(len(pool) + 1):
        for combo in combinations(pool, size):
            yield frozenset(combo)


def _members(pool: Sequence[T], m: int) -> frozenset[T]:
    return frozenset(x for i, x in enumerate(pool) if m >> i & 1)


def _minimal(pool: Sequence[T], flags: Iterable[object]) -> frozenset[frozenset[T]]:
    """The subset-minimal subsets ``m`` of the pool whose flag (item ``m``
    of ``flags``) is true: a mask is kept unless a kept one, met first by
    size, lies inside it."""
    kept: list[int] = []
    for m in sorted(compress(range(1 << len(pool)), flags), key=int.bit_count):
        if not any(k & m == k for k in kept):
            kept.append(m)
    return frozenset(_members(pool, m) for m in kept)


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


def _holds_table(pool: list[Fact], facts: Iterable[Fact], *queries: ConjunctiveQuery) -> bytes:
    """Byte ``m`` is 1 iff one of the queries holds on ``facts`` less the
    pool members outside subset ``m``: iff the image of some valuation
    into all of ``facts`` (one nested-loop join per query), read as a mask
    of the pool members it uses, lies within ``m``.  Reversed, the table
    gives byte ``m`` for the complement of ``m``: whether a query survives
    the removal of subset ``m``."""
    bit = {f: 1 << i for i, f in enumerate(pool)}
    images = {
        reduce(or_, (bit.get(ground_atom(a, v), 0) for a in q.atoms), 0)
        for q in queries
        for v in valuations_by_nested_loops(facts, q.atoms)
    }
    return bytes(any(i & m == i for i in images) for m in range(1 << len(pool)))


def _contingencies(holds: bytes, b: int) -> list[bool]:
    """Item ``g`` is true iff subset ``g`` is a contingency set of the pool
    member with bit ``b``: ``g`` leaves it out, and removing ``g`` from the
    pool keeps the answer (``holds``) while removing ``g`` and the member
    loses it.  The member is an actual cause iff some item is true."""
    survives = holds[::-1]
    return [g & b == 0 and survives[g] == 1 and survives[g | b] == 0 for g in range(len(holds))]


def witnesses_by_enumeration(facts: Iterable[Fact], query: ConjunctiveQuery) -> frozenset[FactSet]:
    """Minimal support sets found by walking the subset lattice."""
    pool = sorted(set(facts))
    _guard(len(pool), LATTICE_CAP, "witness")
    return _minimal(pool, _holds_table(pool, pool, query))


def causes_by_enumeration(
    instance: Instance, query: ConjunctiveQuery
) -> dict[Fact, frozenset[FactSet]]:
    """Actual causes, each mapped to its minimal contingency sets, found by
    trying every contingency candidate."""
    pool = sorted(instance.endogenous)
    _guard(len(pool), LATTICE_CAP, "cause")
    check_query_schema(query, instance.schemas)
    holds = _holds_table(pool, instance.facts, query)
    gammas = {t: _contingencies(holds, 1 << i) for i, t in enumerate(pool)}
    return {t: _minimal(pool, g) for t, g in gammas.items() if any(g)}


def s_repair_removals_by_enumeration(
    instance: Instance, constraints: Iterable[DenialConstraint]
) -> frozenset[FactSet]:
    """Removal sets of subset-maximal consistent sub-instances, by lattice
    walk: the complements of those sub-instances are the subset-minimal
    removals that leave a consistent sub-instance."""
    pool = sorted(instance.facts)
    _guard(len(pool), LATTICE_CAP, "repair")
    constraint_list = list(constraints)
    for c in constraint_list:
        check_query_schema(c, instance.schemas)
    violated = _holds_table(pool, pool, *constraint_list)
    return _minimal(pool, map(not_, violated[::-1]))


def diagnoses_by_enumeration(problem: DiagnosisProblem) -> frozenset[FactSet]:
    """Minimal falsifying deletion sets, by trying every endogenous subset."""
    pool = sorted(problem.abnormal_scope)
    _guard(len(pool), LATTICE_CAP, "diagnosis")
    check_query_schema(problem.query, problem.instance.schemas)
    holds = _holds_table(pool, problem.instance.facts, problem.query)
    return _minimal(pool, map(not_, holds[::-1]))


def minimal_hitting_sets_by_enumeration(family: Iterable[Iterable[Fact]]) -> frozenset[frozenset]:
    """Minimal hitting sets by trying every subset of the family's union."""
    sets = [frozenset(s) for s in family]
    pool = sorted(frozenset().union(*sets))
    _guard(len(pool), HITTING_CAP, "hitting set")
    masks = {sum(1 << pool.index(x) for x in s) for s in sets}
    return _minimal(pool, (all(h & s for s in masks) for h in range(1 << len(pool))))


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


class FixpointLattice:
    """Whether the observations ``obs`` are in the naive model of
    ``edb ∪ S``, for every subset ``S`` of the sorted abducibles ``hyp``:
    one naive fixpoint per subset, run when :attr:`table` is first read
    and kept only with the lattice, so the three Datalog oracles can read
    one table."""

    def __init__(self, program: DatalogProgram, edb: FactSet, hyp: FactSet, obs: FactSet) -> None:
        self.program, self.edb, self.pool, self.obs = program, edb, sorted(hyp), obs

    @cached_property
    def table(self) -> bytes:
        """Byte ``m`` is 1 iff the observations hold with subset ``m`` of the abducibles."""
        return bytes(
            self.obs <= naive_datalog_model(self.program, self.edb | _members(self.pool, m))
            for m in range(1 << len(self.pool))
        )

    def causes(self) -> frozenset[Fact]:
        """The abducibles that are actual causes of the observations."""
        _guard(len(self.pool), LATTICE_CAP, "Datalog cause")
        table = self.table
        return frozenset(t for i, t in enumerate(self.pool) if any(_contingencies(table, 1 << i)))

    def solutions(self) -> frozenset[FactSet]:
        """The subset-minimal sets of abducibles that entail the observations."""
        _guard(len(self.pool), ABDUCIBLE_CAP, "solution")
        return _minimal(self.pool, self.table)

    def necessary_sets(self) -> frozenset[FactSet]:
        """The subset-minimal sets of abducibles whose removal leaves no solution."""
        _guard(len(self.pool), ABDUCIBLE_CAP, "necessary set")
        return _minimal(self.pool, map(not_, self.table[::-1]))


def datalog_causes_by_enumeration(program: DatalogProgram, instance: Instance) -> frozenset[Fact]:
    """Actual causes of the answer atom found by trying every contingency
    candidate against the naive fixpoint."""
    goal = frozenset({program.answer_atom()})
    return FixpointLattice(program, instance.exogenous, instance.endogenous, goal).causes()


def solutions_by_enumeration(problem: AbductionProblem) -> frozenset[FactSet]:
    """Abductive solutions by trying every subset of the abducibles."""
    return FixpointLattice(problem.program, problem.edb, problem.hyp, problem.obs).solutions()


def necessary_sets_by_enumeration(problem: AbductionProblem) -> frozenset[FactSet]:
    """Necessary hypothesis sets by the definition: remove the candidate
    set and check that no solution survives."""
    return FixpointLattice(problem.program, problem.edb, problem.hyp, problem.obs).necessary_sets()
