"""Actual causes for boolean conjunctive query answers.

A tuple t of the endogenous part is a counterfactual cause when deleting
it alone falsifies the query, and an actual cause when it becomes a
counterfactual cause after deleting some contingency set of endogenous
tuples.  A :data:`CauseSet` maps each actual cause to its minimal
contingency sets.  Responsibility is the exact rational 1/(1 + k) where
k is the size of the smallest contingency set, computed by
:func:`responsibility_of`; non-causes get responsibility 0.

The cause sets this module returns are :class:`HittingCauseSet`
mappings: each holds the minimal hitting sets it is read off, its causes
are their members, and a cause's contingency sets are built only when
that value is read, so a report printed straight from the hitting sets
(:func:`causelab.serialize.cause_set_to_list`) builds none of them.

Causes reduce to minimal hitting sets of the endogenous parts of the
query's witnesses: the minimal contingency sets of t are exactly H minus
{t} for the minimal hitting sets H that contain t, and the search
enumerates only those when asked for t.  The parts split into
components that share no fact, and a minimal hitting set is one per
component, so t's smallest contingency set has size

    k = (the least hitting set of t's component containing t) - 1
        + (the sum of every other component's least hitting set),

which :func:`responsibility` finds with no set enumerated (Meliou,
Gatterbauer, Moore & Suciu, PVLDB 2010: responsibility needs only the
smallest contingency set).  The most responsible causes are the tuples
in a least hitting set of their own component.  The definition-level
search over contingency candidates lives in :mod:`causelab.oracles`,
which the cross-check harness compares against.

Every route here reads the witnesses through :func:`endogenous_parts`,
which checks the query against the instance's schemas
(:func:`~causelab.model.check_query_schema`) before it reads them.  It
keeps its parts for the request under the instance and the query, and
the check is part of computing them: the key holds the schemas, and a
failing check raises and stores nothing, so every call on a query that
does not fit raises again.
"""
from __future__ import annotations

from collections.abc import Collection, Iterator, Mapping
from fractions import Fraction
from itertools import chain
from typing import Any, Iterable, TypeAlias

from .budget import current_meter
from .errors import DomainError
from .hitting import min_hitting_size, minimal_hitting_sets, smallest_set_elements
from .model import ConjunctiveQuery, Fact, Instance, check_query_schema, witnesses

__all__ = [
    "ContingencySet",
    "CauseSet",
    "HittingCauseSet",
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


class HittingCauseSet(Mapping[Fact, frozenset[ContingencySet]]):
    """A read-only cause set held as the minimal hitting sets it is read
    off: its causes are their members, and a cause's contingency sets,
    the sets containing it less itself, are built when that value is
    first read and kept for the next read."""

    __slots__ = ("hitting_sets", "_gammas")

    def __init__(self, hitting_sets: Collection[frozenset[Fact]]) -> None:
        self.hitting_sets = hitting_sets
        # every cause, mapped to None until its contingency sets are read
        self._gammas: dict[Fact, Any] = dict.fromkeys(chain.from_iterable(hitting_sets))

    def __getitem__(self, t: Fact) -> frozenset[ContingencySet]:
        gammas = self._gammas[t]
        if gammas is None:
            gammas = self._gammas[t] = frozenset(h - {t} for h in self.hitting_sets if t in h)
        return gammas

    def __contains__(self, t: object) -> bool:
        return t in self._gammas

    def __iter__(self) -> Iterator[Fact]:
        return iter(self._gammas)

    def __len__(self) -> int:
        return len(self._gammas)


def cause_set_from_hitting_sets(sets: Iterable[frozenset[Fact]]) -> HittingCauseSet:
    """Causes read off a family of minimal hitting sets drawn from the
    candidates (the endogenous tuples, or the abducibles).

    A tuple is a cause iff one of the sets contains it, and its minimal
    contingency sets are those sets minus itself.  The hitting sets of
    witness parts, the endogenous repair removal sets, the minimal
    diagnoses and the necessary hypothesis sets all yield causes this way.
    Each set H is charged ``|H|(|H| - 1)`` units, the size of the
    contingency sets built from it, before any of them is built; the
    cause set keeps the sets and builds a cause's contingency sets only
    when they are read.  A frozenset (a hitting-set answer, which keeps
    the leaves it is ranked from) is kept as it is.
    """
    if not isinstance(sets, frozenset):
        sets = frozenset(sets)
    charge = current_meter().charge
    for n in map(len, sets):
        charge(n * (n - 1))
    return HittingCauseSet(sets)


def require_endogenous(instance: Instance, t: Fact) -> None:
    """Raise :class:`DomainError` unless ``t`` is an endogenous fact of the
    instance: the admissibility check of every per-tuple cause route."""
    if t in instance.endogenous:
        return
    if t in instance.exogenous:
        raise DomainError(f"{t} is exogenous; only endogenous tuples can be causes")
    raise DomainError(f"{t} is not in the instance")


def is_counterfactual_cause(instance: Instance, query: ConjunctiveQuery, t: Fact) -> bool:
    """True iff the query holds and deleting ``t`` alone falsifies it: the
    query has a witness, and every witness, so every endogenous part,
    contains ``t``."""
    require_endogenous(instance, t)
    parts = endogenous_parts(instance, query)
    return bool(parts) and all(t in part for part in parts)


def endogenous_parts(instance: Instance, query: ConjunctiveQuery) -> frozenset[frozenset[Fact]]:
    """The endogenous part of every witness of the query: the family whose
    minimal hitting sets are the contingency-extended causes and the
    minimal diagnoses.  Empty iff the query is false; it holds the empty
    set iff some witness is wholly exogenous, and then nothing is a cause.
    Raises SchemaError first when the query does not fit the instance's
    schemas.  Computed once per ``with Meter`` block for an equal instance
    and query (:meth:`~causelab.budget.Meter.once`)."""

    def parts() -> frozenset[frozenset[Fact]]:
        check_query_schema(query, instance.schemas)
        endogenous = instance.endogenous
        return frozenset(w & endogenous for w in witnesses(instance.facts, query))

    return current_meter().once(("parts", instance, query), parts)


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
    """The responsibility of ``t`` from its smallest contingency set; 0 when
    ``t`` is not an actual cause (also when the query does not hold).

    With k that set's size, 1 + k is the least size of a minimal hitting
    set containing ``t``: the least such set in t's component plus every
    other component's minimum, found with no set enumerated.
    """
    require_endogenous(instance, t)
    size = min_hitting_size(endogenous_parts(instance, query), forced=t)
    return Fraction(0) if size is None else Fraction(1, size)


def most_responsible_causes(instance: Instance, view: ConjunctiveQuery) -> frozenset[Fact]:
    """The actual causes with maximal responsibility; empty iff there are none.

    A cause's smallest contingency set is its component's least set
    containing it, less itself, plus every other component's minimum, so
    the most responsible causes are the tuples in a smallest set of their
    own component: each component's smallest sets are searched alone and
    no product is built.
    """
    return smallest_set_elements(endogenous_parts(instance, view))
