"""Actual causes for boolean conjunctive query answers.

A tuple t of the endogenous part is a counterfactual cause when deleting
it alone falsifies the query, and an actual cause when it becomes a
counterfactual cause after deleting some contingency set of endogenous
tuples.  Responsibility is the exact rational 1/(1 + k) where k is the
size of the smallest contingency set; non-causes get responsibility 0.

Causes reduce to minimal hitting sets of the endogenous parts of the
query's witnesses: the minimal contingency sets of t are exactly H minus
{t} for the minimal hitting sets H that contain t.  The definition-level
search over contingency candidates lives in :mod:`causelab.oracles`,
which the cross-check harness compares against.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, TypeAlias

from .errors import DomainError
from .hitting import minimal_hitting_sets
from .model import (
    BooleanQuery,
    Fact,
    Instance,
    eval_bcq,
    witnesses,
)

__all__ = [
    "ContingencySet",
    "CauseReport",
    "CauseSet",
    "cause_set_from_hitting_sets",
    "is_counterfactual_cause",
    "minimal_contingency_sets",
    "actual_causes",
    "responsibility",
    "most_responsible_causes",
]

#: A contingency set: endogenous tuples whose removal makes its cause
#: counterfactual.
ContingencySet: TypeAlias = frozenset[Fact]


@dataclass(frozen=True)
class CauseReport:
    """One actual cause and all its minimal contingency sets."""

    cause: Fact
    minimal_contingencies: frozenset[ContingencySet]

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "minimal_contingencies",
            frozenset(frozenset(c) for c in self.minimal_contingencies),
        )
        if not self.minimal_contingencies:
            raise ValueError("a cause must carry at least one contingency set")

    @property
    def responsibility(self) -> Fraction:
        """1/(1 + k) for the smallest contingency set, of size k."""
        return Fraction(1, 1 + min(map(len, self.minimal_contingencies)))

    @property
    def is_counterfactual(self) -> bool:
        return frozenset() in self.minimal_contingencies


@dataclass(frozen=True)
class CauseSet:
    """All actual causes of one query over one instance."""

    reports: frozenset[CauseReport]

    def __post_init__(self) -> None:
        object.__setattr__(self, "reports", frozenset(self.reports))
        seen = [r.cause for r in self.reports]
        if len(seen) != len(set(seen)):
            raise ValueError("a tuple may appear in at most one cause report")

    def causes(self) -> tuple[Fact, ...]:
        return tuple(sorted(r.cause for r in self.reports))

    def report_for(self, t: Fact) -> CauseReport | None:
        for r in self.reports:
            if r.cause == t:
                return r
        return None

    def responsibility(self, t: Fact) -> Fraction:
        report = self.report_for(t)
        return report.responsibility if report is not None else Fraction(0)

    def __contains__(self, t: Fact) -> bool:
        return any(r.cause == t for r in self.reports)

    def __iter__(self) -> Iterator[CauseReport]:
        return iter(sorted(self.reports, key=lambda r: r.cause))

    def __len__(self) -> int:
        return len(self.reports)

    def __bool__(self) -> bool:
        return bool(self.reports)


def cause_set_from_hitting_sets(
    sets: Iterable[frozenset[Fact]], candidates: frozenset[Fact]
) -> CauseSet:
    """Cause reports read off a family of minimal hitting sets.

    Only the sets drawn wholly from ``candidates`` count.  A candidate is
    a cause iff one of them contains it; its minimal contingency sets are
    those sets minus itself, and its responsibility is the reciprocal of
    the smallest one.  The hitting sets of witness parts, the repair
    removal sets and the minimal diagnoses all yield causes this way.
    """
    containing: dict[Fact, list[frozenset[Fact]]] = {}
    for h in sets:
        if h <= candidates:
            for t in h:
                containing.setdefault(t, []).append(h)
    return CauseSet(
        frozenset(
            CauseReport(t, frozenset(h - {t} for h in hs)) for t, hs in containing.items()
        )
    )


def _require_endogenous(instance: Instance, t: Fact) -> None:
    if t in instance.endogenous:
        return
    if t in instance.exogenous:
        raise DomainError(f"{t} is exogenous; only endogenous tuples can be causes")
    raise DomainError(f"{t} is not in the instance")


def is_counterfactual_cause(instance: Instance, query: BooleanQuery, t: Fact) -> bool:
    """True iff the query holds and deleting ``t`` alone falsifies it."""
    _require_endogenous(instance, t)
    facts = instance.facts
    return eval_bcq(facts, query, instance.schemas) and not eval_bcq(
        facts - {t}, query, instance.schemas
    )


def _endogenous_hitting_sets(
    instance: Instance, query: BooleanQuery
) -> frozenset[frozenset[Fact]]:
    family = {w & instance.endogenous for w in witnesses(instance.facts, query, instance.schemas)}
    return minimal_hitting_sets(family)


def minimal_contingency_sets(
    instance: Instance, view: BooleanQuery, t: Fact
) -> frozenset[ContingencySet]:
    """All subset-minimal contingency sets turning ``t`` into a counterfactual
    cause for the view; empty iff ``t`` is not an actual cause."""
    _require_endogenous(instance, t)
    hs = _endogenous_hitting_sets(instance, view)
    return frozenset(h - {t} for h in hs if t in h)


def actual_causes(instance: Instance, query: BooleanQuery) -> CauseSet:
    """Every actual cause of the query, with contingency sets and exact
    responsibility.  Empty when the query is false on the instance."""
    hs = _endogenous_hitting_sets(instance, query)
    return cause_set_from_hitting_sets(hs, instance.endogenous)


def responsibility(instance: Instance, query: BooleanQuery, t: Fact) -> Fraction:
    """1/(1 + k) for the smallest contingency set of size k, or 0 when
    ``t`` is not an actual cause (also when the query does not hold)."""
    gammas = minimal_contingency_sets(instance, query, t)
    return CauseReport(t, gammas).responsibility if gammas else Fraction(0)


def most_responsible_causes(instance: Instance, view: BooleanQuery) -> frozenset[Fact]:
    """The actual causes with maximal responsibility; empty iff there are none."""
    cause_set = actual_causes(instance, view)
    if not cause_set:
        return frozenset()
    top = max(r.responsibility for r in cause_set.reports)
    return frozenset(r.cause for r in cause_set.reports if r.responsibility == top)
