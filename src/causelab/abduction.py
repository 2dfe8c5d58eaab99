"""Datalog abduction: explaining observations from abducible facts.

A problem bundles a program, background facts (always available), a set
of hypothesis facts (the abducibles) and observed ground atoms that the
three together must entail.  A solution is a subset-minimal set of
abducibles that restores entailment of the observations over the
background alone.  Necessary hypothesis sets are the subset-minimal sets
of abducibles whose removal destroys every solution; the smallest one
containing a fact gives that fact's responsibility for the observation,
which extends cause/responsibility from conjunctive queries to
recursive Datalog queries.  The definition-level searches over subsets
of abducibles and contingency sets live in :mod:`causelab.oracles`.

:func:`problem_for_instance` is where a program meets an instance: it
holds the body atoms over stored relations, and any explicit
observations, to the instance's schemas with
:func:`~causelab.model.check_schema`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, TypeAlias

from .causality import require_endogenous
from .errors import DomainError
from .hitting import min_hitting_size, minimal_hitting_sets, minimize_family
from .model import Fact, Instance, check_schema
from .datalog import DatalogProgram, minimal_supports

__all__ = [
    "AbductionProblem",
    "NecessarySet",
    "problem_for_instance",
    "abductive_solutions",
    "relevant_hypotheses",
    "necessary_sets",
    "datalog_actual_causes",
    "datalog_responsibility",
]

#: A necessary hypothesis set: removing it from the abducibles leaves the
#: observations unexplainable, and it is subset-minimal with that property.
NecessarySet: TypeAlias = frozenset[Fact]


@dataclass(frozen=True)
class AbductionProblem:
    """program + background + abducibles + observations.

    Rejected at construction when the observations are not entailed by
    program, background and all abducibles together, or when a rule head
    predicate occurs among the background or abducible facts.
    """

    program: DatalogProgram
    edb: frozenset[Fact]
    hyp: frozenset[Fact]
    obs: frozenset[Fact]
    #: The subset-minimal sets of abducibles that, with the background,
    #: entail the observations: the minimized abducible parts of the
    #: observations' minimal supports, computed once, at construction.
    solutions: frozenset[frozenset[Fact]] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "edb", frozenset(self.edb))
        object.__setattr__(self, "hyp", frozenset(self.hyp))
        object.__setattr__(self, "obs", frozenset(self.obs))
        heads = self.program.head_predicates()
        clashing = sorted({f.relation for f in self.edb | self.hyp} & heads)
        if clashing:
            raise ValueError(
                "rule head predicates may not occur among the facts: " + ", ".join(clashing)
            )
        supports = minimal_supports(self.program, self.edb | self.hyp, self.obs)
        if not supports:
            raise DomainError(
                "the observations are not entailed even with every hypothesis included"
            )
        object.__setattr__(self, "solutions", minimize_family(s - self.edb for s in supports))


def problem_for_instance(
    program: DatalogProgram,
    instance: Instance,
    observations: Iterable[Fact] | None = None,
) -> AbductionProblem:
    """The canonical problem for a query program over a partitioned
    instance: exogenous facts form the background, endogenous facts are
    the abducibles, and the observation defaults to the answer atom.

    A body atom whose relation no rule head defines reads the instance,
    so it must use a declared relation at its declared arity, as a query
    atom must; a declared relation with no facts is fine.  An explicit
    observation must match a rule head or a declared relation in both
    name and arity; the observations are checked in canonical order, so
    the error names the smallest offender.  The default answer atom is
    not checked: a program without an answer rule just does not entail
    it."""
    heads = program.head_predicates()
    declared = {s.name: s.arity for s in instance.schemas}.items()
    stored = (a for r in program.rules for a in r.body if a.relation not in heads)
    check_schema("query atom", stored, declared)
    if observations is None:
        obs = frozenset({program.answer_atom()})
    else:
        obs = frozenset(observations)
        defined = {(r.head.relation, r.head.arity) for r in program.rules}
        check_schema("observation", sorted(obs), declared | defined)
    return AbductionProblem(program, instance.exogenous, instance.endogenous, obs)


def abductive_solutions(problem: AbductionProblem) -> frozenset[frozenset[Fact]]:
    """All subset-minimal sets of abducibles that, with the background,
    entail the observations.

    Read off the problem, which derives them from the minimal supports of
    the observations over background plus abducibles: the background part
    of a support is free, so the solutions are the minimized abducible
    parts.  Observations entailed by the background alone yield the single
    empty solution.
    """
    return problem.solutions


def relevant_hypotheses(problem: AbductionProblem) -> frozenset[Fact]:
    """The abducibles occurring in at least one solution."""
    return frozenset().union(*problem.solutions)


def necessary_sets(problem: AbductionProblem) -> frozenset[NecessarySet]:
    """All subset-minimal sets of abducibles whose removal leaves no
    solution.

    By monotonicity of entailment these are exactly the minimal hitting
    sets of the solution family; the cross-check harness validates this
    against the definition-level search.  Empty when the background alone
    entails the observations, since then nothing can be made necessary.
    """
    return minimal_hitting_sets(problem.solutions)


def _endogenous_support_parts(
    program: DatalogProgram, instance: Instance
) -> frozenset[frozenset[Fact]]:
    """The subset-minimal endogenous parts of the answer atom's minimal
    supports: one fixpoint in all.

    Empty when the answer is not derived; ``{frozenset()}`` when some
    support is wholly exogenous.  Their minimal hitting sets are the
    necessary sets of the instance's canonical abduction problem.
    """
    supports = minimal_supports(program, instance.facts, {program.answer_atom()})
    return minimize_family(s & instance.endogenous for s in supports)


def datalog_actual_causes(program: DatalogProgram, instance: Instance) -> frozenset[Fact]:
    """Actual causes for the answer atom, by the contingency definition
    generalized to Datalog entailment.

    A tuple is a cause iff it lies in a subset-minimal endogenous part of
    the answer's minimal supports and no part is empty (Meliou,
    Gatterbauer, Moore & Suciu, PVLDB 2010): each element of a minimal
    member of a family lies in some minimal hitting set of it.  An empty
    part is the only minimal one, so the union of the minimal parts is the
    answer with no hitting-set search; empty when the program does not
    derive the answer from the full instance.  Agrees with the relevant
    hypotheses of the matching abduction problem.
    """
    return frozenset().union(*_endogenous_support_parts(program, instance))


def datalog_responsibility(program: DatalogProgram, instance: Instance, t: Fact) -> Fraction:
    """1/|N| for the smallest necessary hypothesis set N containing ``t``
    in the instance's canonical abduction problem; 0 when ``t`` is in no
    necessary set or the answer is not derived at all.  |N| is found by
    branch and bound, as the least set containing ``t`` in its component
    plus every other component's minimum; no necessary set is listed."""
    require_endogenous(instance, t)
    size = min_hitting_size(_endogenous_support_parts(program, instance), forced=t)
    return Fraction(0) if size is None else Fraction(1, size)
