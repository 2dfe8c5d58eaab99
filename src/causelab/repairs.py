"""Repairs of an instance with respect to denial constraints, and the
constructions connecting them to actual causes.

For denial constraints, deleting tuples is the only way to restore
consistency (the constraints are anti-monotone), so repairs are
consistent sub-instances.  S-repairs keep a subset-maximal consistent
set of facts; C-repairs additionally keep as many facts as possible.
The violation view of a denial constraint is the query whose pattern it
forbids, and a constraint is that query (:data:`DenialConstraint`), so
it goes to the witness and cause engines unchanged.  Removal sets of
S-repairs are exactly the minimal hitting sets of its witnesses;
multiple constraints pool their witnesses.  A repair is represented by
its removal set: the repaired instance is the original minus those
facts.

A ground atom is consistently true, kept by every S-repair, iff it lies
in no witness of the constraint, so :func:`consistently_true` reads the
answer off the witnesses alone.

The *_from_causes constructions rebuild repairs out of the cause and
contingency classes of the violation view and must coincide with the
direct computation; the cross-check harness verifies this on random
instances.
"""
from __future__ import annotations

from typing import Iterable, TypeAlias

from .causality import CauseSet, actual_causes, cause_set_from_hitting_sets, require_endogenous
from .errors import DomainError
from .hitting import minimal_hitting_sets
from .model import ConjunctiveQuery, DenialConstraint, Fact, Instance, witnesses

__all__ = [
    "Repair",
    "s_repairs",
    "c_repairs",
    "removal_sets_containing",
    "causes_from_repairs",
    "s_repairs_from_causes",
    "c_repairs_from_most_responsible",
    "consistently_true",
    "endogenous_s_repairs",
]

#: The facts a repair deletes; the repair keeps the rest of the instance.
Repair: TypeAlias = frozenset[Fact]


def s_repairs(
    instance: Instance, constraints: Iterable[DenialConstraint]
) -> frozenset[Repair]:
    """The removal sets of all subset-maximal consistent sub-instances."""
    pooled: set[frozenset[Fact]] = set()
    for constraint in constraints:
        pooled |= witnesses(instance.facts, constraint, instance.schemas)
    return minimal_hitting_sets(pooled)


def c_repairs(
    instance: Instance, constraints: Iterable[DenialConstraint]
) -> frozenset[Repair]:
    """The S-repairs removing the fewest facts."""
    removals = s_repairs(instance, constraints)
    best = min(len(r) for r in removals)
    return frozenset(r for r in removals if len(r) == best)


def removal_sets_containing(
    instance: Instance, constraint: DenialConstraint, t: Fact
) -> frozenset[Repair]:
    """S-repair removal sets that contain ``t`` and consist of endogenous
    facts only; nonempty exactly when ``t`` is an actual cause of the
    constraint's violation view."""
    require_endogenous(instance, t)
    conflicts = witnesses(instance.facts, constraint, instance.schemas)
    removals = minimal_hitting_sets(conflicts, forced=t)
    return frozenset(r for r in removals if r <= instance.endogenous)


def causes_from_repairs(instance: Instance, query: ConjunctiveQuery) -> CauseSet:
    """Actual causes computed purely from repair removal sets.

    A tuple is a cause iff some S-repair of the query's denial constraint
    removes it using endogenous facts only, and its responsibility is the
    reciprocal of the smallest such removal set.
    """
    return cause_set_from_hitting_sets(endogenous_s_repairs(instance, [query]))


def _repairs_from_cause_set(cause_set: CauseSet) -> frozenset[Repair]:
    """The removal sets X such that every t in X is a cause in
    ``cause_set`` with X minus {t} among its contingency sets; with no
    causes at all, the instance repairs to itself."""
    if not cause_set:
        return frozenset({frozenset()})
    candidates = {gamma | {t} for t, gammas in cause_set.items() for gamma in gammas}
    return frozenset(
        removed
        for removed in candidates
        if all(t in cause_set and removed - {t} in cause_set[t] for t in removed)
    )


def s_repairs_from_causes(
    instance: Instance, constraint: DenialConstraint
) -> frozenset[Repair]:
    """S-repairs rebuilt from the cause and contingency classes of the
    violation view, with the whole instance treated as endogenous.

    A candidate removal set X qualifies iff every t in X is an actual
    cause whose contingency class contains X minus {t}.  A consistent
    instance has no causes and repairs to itself.
    """
    cause_set = actual_causes(instance.all_endogenous(), constraint)
    return _repairs_from_cause_set(cause_set)


def c_repairs_from_most_responsible(
    instance: Instance, constraint: DenialConstraint
) -> frozenset[Repair]:
    """C-repairs rebuilt from the most responsible causes of the violation
    view.  With k the size of the smallest contingency set of any cause,
    every removed tuple must have a contingency set of size k, and the
    rest of the removal set must be one of those.  Larger contingency sets
    of a top cause belong to S-repairs that are not C-repairs."""
    cause_set = actual_causes(instance.all_endogenous(), constraint)
    k = min((len(g) for gammas in cause_set.values() for g in gammas), default=0)
    top = {t: frozenset(g for g in gammas if len(g) == k) for t, gammas in cause_set.items()}
    return _repairs_from_cause_set({t: gammas for t, gammas in top.items() if gammas})


def consistently_true(instance: Instance, constraint: DenialConstraint, a: Fact) -> bool:
    """Consistent query answering for a ground atom of the instance: true
    iff every S-repair keeps ``a``.

    For denial constraints that holds iff ``a`` lies in no minimal
    conflict, i.e. in no witness of the violation view (Chomicki and
    Marcinkowski, Inf. Comput. 2005): the witnesses form an antichain, so
    each fact of one lies in some minimal hitting set.  One join answers
    it.  The paper's route, ``a`` is no actual cause of the violation view
    with the whole instance endogenous, says the same through causality;
    the cross-check harness keeps it as a reference, next to the
    intersection of the S-repairs.
    """
    if a not in instance.facts:
        raise DomainError(f"{a} is not a fact of the instance")
    return not any(a in w for w in witnesses(instance.facts, constraint, instance.schemas))


def endogenous_s_repairs(
    instance: Instance, constraints: Iterable[DenialConstraint]
) -> frozenset[Repair]:
    """S-repairs obtained by deleting endogenous facts only.

    May be empty; emptiness means no endogenous repair exists, it is not
    an error.
    """
    return frozenset(r for r in s_repairs(instance, constraints) if r <= instance.endogenous)
