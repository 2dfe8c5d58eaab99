"""Causality cast as consistency-based diagnosis.

The unexpected truth of a query is the observation; endogenous tuples
are the components that may be abnormal.  A diagnosis is a set of
endogenous tuples whose removal falsifies the query, i.e. restores the
expected behaviour.  The first-order encoding with abnormality
predicates is represented semantically: flagging a set of tuples
abnormal is consistent with the observation exactly when deleting them
falsifies the query, so that is the test used here.  The smallest
diagnoses containing t are t's least ones in its own component of the
witness parts, each joined with a least diagnosis of every other
component: their size is the least containing t there plus the sum of
the other components' minima.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TypeAlias

from .causality import CauseSet, cause_set_from_hitting_sets, endogenous_parts, require_endogenous
from .hitting import minimal_hitting_sets, smallest_hitting_sets
from .model import ConjunctiveQuery, Fact, Instance

__all__ = [
    "DiagnosisProblem",
    "Diagnosis",
    "build_problem",
    "minimal_diagnoses",
    "diagnoses_containing",
    "smallest_diagnoses_containing",
    "causes_via_diagnosis",
]


#: Endogenous tuples flagged abnormal; deleting them falsifies the query.
Diagnosis: TypeAlias = frozenset[Fact]


@dataclass(frozen=True)
class DiagnosisProblem:
    """A query observed to hold over an instance, with the endogenous part
    as the scope of possible abnormality.

    ``parts`` holds the endogenous part of every witness of the query,
    built once by :func:`build_problem`: a set of tuples restores the
    expected behaviour iff it meets each part.  With no witness the
    observation does not actually hold and the problem is vacuous: the
    empty abnormality assumption already explains the behaviour and no
    tuple-specific diagnosis class is populated.
    """

    instance: Instance
    query: ConjunctiveQuery
    parts: frozenset[frozenset[Fact]]

    @property
    def vacuous(self) -> bool:
        """True iff the query has no witness, i.e. it is false."""
        return not self.parts

    @property
    def abnormal_scope(self) -> frozenset[Fact]:
        """The tuples that may be flagged abnormal: the endogenous ones."""
        return self.instance.endogenous


def build_problem(instance: Instance, query: ConjunctiveQuery) -> DiagnosisProblem:
    """Set up the diagnosis problem for a query over an instance: one join,
    whose witnesses give the endogenous parts the problem carries."""
    return DiagnosisProblem(instance, query, endogenous_parts(instance, query))


def minimal_diagnoses(problem: DiagnosisProblem) -> frozenset[Diagnosis]:
    """All subset-minimal sets of endogenous tuples whose removal falsifies
    the query.

    These are exactly the minimal hitting sets of the problem's endogenous
    witness parts: empty result iff some witness contains no endogenous
    tuple; the vacuous problem yields the empty diagnosis.
    """
    return minimal_hitting_sets(problem.parts)


def diagnoses_containing(problem: DiagnosisProblem, t: Fact) -> frozenset[Diagnosis]:
    """The subset-minimal diagnoses that contain ``t``."""
    require_endogenous(problem.instance, t)
    return minimal_hitting_sets(problem.parts, forced=t)


def smallest_diagnoses_containing(problem: DiagnosisProblem, t: Fact) -> frozenset[Diagnosis]:
    """Among the diagnoses containing ``t``, those of minimum cardinality:
    the smallest sets containing ``t`` in its own component, times every
    other component's smallest sets, with no other diagnosis enumerated."""
    require_endogenous(problem.instance, t)
    return smallest_hitting_sets(problem.parts, forced=t)


def causes_via_diagnosis(problem: DiagnosisProblem) -> CauseSet:
    """Actual causes computed solely from the diagnosis classes: a tuple is
    a cause iff some minimal diagnosis contains it, and its responsibility
    is the reciprocal of the smallest such diagnosis."""
    return cause_set_from_hitting_sets(minimal_diagnoses(problem))
