"""Actual causes for boolean conjunctive query answers.

A tuple t of the endogenous part is a counterfactual cause when deleting
it alone falsifies the query, and an actual cause when it becomes a
counterfactual cause after deleting some contingency set of endogenous
tuples.  A :data:`CauseSet` maps each actual cause to its minimal
contingency sets.  Responsibility is the exact rational 1/(1 + k) where
k is the size of the smallest contingency set, computed by
:func:`responsibility_of`; non-causes get responsibility 0.

Causes reduce to minimal hitting sets of the endogenous parts of the
query's witnesses: the minimal contingency sets of t are exactly H minus
{t} for the minimal hitting sets H that contain t, and the search
enumerates only those when asked for t.  The definition-level search
over contingency candidates lives in :mod:`causelab.oracles`, which the
cross-check harness compares against.
"""
from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, TypeAlias

from .errors import DomainError
from .hitting import minimal_hitting_sets
from .model import ConjunctiveQuery, Fact, Instance, eval_bcq, witnesses

__all__ = [
    "ContingencySet",
    "CauseSet",
    "cause_set_from_hitting_sets",
    "responsibility_of",
    "require_endogenous",
    "is_counterfactual_cause",
    "endogenous_parts",
    "minimal_contingency_sets",
    "actual_causes",
    "responsibility",
    "most_responsible_causes",
]

#: A contingency set: endogenous tuples whose removal makes its cause
#: counterfactual.
ContingencySet: TypeAlias = frozenset[Fact]

#: The actual causes of one query over one instance, each mapped to its
#: minimal contingency sets; a cause always has at least one.
CauseSet: TypeAlias = Mapping[Fact, frozenset[ContingencySet]]


def responsibility_of(contingencies: Iterable[ContingencySet]) -> Fraction:
    """1/(1 + k) for the smallest contingency set, of size k; 0 with none."""
    k = min(map(len, contingencies), default=None)
    return Fraction(0) if k is None else Fraction(1, 1 + k)


def cause_set_from_hitting_sets(sets: Iterable[frozenset[Fact]]) -> CauseSet:
    """Causes read off a family of minimal hitting sets drawn from the
    candidates (the endogenous tuples, or the abducibles).

    A tuple is a cause iff one of the sets contains it, and its minimal
    contingency sets are those sets minus itself.  The hitting sets of
    witness parts, the endogenous repair removal sets, the minimal
    diagnoses and the necessary hypothesis sets all yield causes this way.
    """
    containing: dict[Fact, list[frozenset[Fact]]] = {}
    for h in sets:
        for t in h:
            containing.setdefault(t, []).append(h)
    return MappingProxyType(
        {t: frozenset(h - {t} for h in hs) for t, hs in containing.items()}
    )


def require_endogenous(instance: Instance, t: Fact) -> None:
    """Raise :class:`DomainError` unless ``t`` is an endogenous fact of the
    instance: the admissibility check of every per-tuple cause route."""
    if t in instance.endogenous:
        return
    if t in instance.exogenous:
        raise DomainError(f"{t} is exogenous; only endogenous tuples can be causes")
    raise DomainError(f"{t} is not in the instance")


def is_counterfactual_cause(instance: Instance, query: ConjunctiveQuery, t: Fact) -> bool:
    """True iff the query holds and deleting ``t`` alone falsifies it."""
    require_endogenous(instance, t)
    facts = instance.facts
    return eval_bcq(facts, query, instance.schemas) and not eval_bcq(
        facts - {t}, query, instance.schemas
    )


def endogenous_parts(instance: Instance, query: ConjunctiveQuery) -> frozenset[frozenset[Fact]]:
    """The endogenous part of every witness of the query: the family whose
    minimal hitting sets are the contingency-extended causes and the
    minimal diagnoses.  Empty iff the query is false; it holds the empty
    set iff some witness is wholly exogenous, and then nothing is a cause."""
    endogenous = instance.endogenous
    return frozenset(w & endogenous for w in witnesses(instance.facts, query, instance.schemas))


def minimal_contingency_sets(
    instance: Instance, view: ConjunctiveQuery, t: Fact
) -> frozenset[ContingencySet]:
    """All subset-minimal contingency sets turning ``t`` into a counterfactual
    cause for the view; empty iff ``t`` is not an actual cause."""
    require_endogenous(instance, t)
    hs = minimal_hitting_sets(endogenous_parts(instance, view), forced=t)
    return frozenset(h - {t} for h in hs)


def actual_causes(instance: Instance, query: ConjunctiveQuery) -> CauseSet:
    """Every actual cause of the query, mapped to its minimal contingency
    sets.  Empty when the query is false on the instance."""
    return cause_set_from_hitting_sets(minimal_hitting_sets(endogenous_parts(instance, query)))


def responsibility(instance: Instance, query: ConjunctiveQuery, t: Fact) -> Fraction:
    """The responsibility of ``t`` from its minimal contingency sets; 0 when
    ``t`` is not an actual cause (also when the query does not hold)."""
    return responsibility_of(minimal_contingency_sets(instance, query, t))


def most_responsible_causes(instance: Instance, view: ConjunctiveQuery) -> frozenset[Fact]:
    """The actual causes with maximal responsibility; empty iff there are none."""
    rho = {t: responsibility_of(gammas) for t, gammas in actual_causes(instance, view).items()}
    top = max(rho.values(), default=None)
    return frozenset(t for t, r in rho.items() if r == top)
