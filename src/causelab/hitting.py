"""Set-family utilities: antichains, subset enumeration and minimal
hitting sets.

The hitting-set enumeration is the workhorse behind repairs, diagnoses,
contingency sets and necessary hypothesis sets.  Elements must be
hashable and totally ordered (ground facts are).
"""
from __future__ import annotations

from itertools import combinations
from typing import Hashable, Iterable, Iterator, TypeVar

from .budget import current_meter

T = TypeVar("T", bound=Hashable)


def minimize_family(sets: Iterable[Iterable[T]]) -> frozenset[frozenset[T]]:
    """Subset-minimal members of a family of sets."""
    unique = sorted({frozenset(s) for s in sets}, key=len)
    keep: list[frozenset[T]] = []
    for cand in unique:
        if not any(kept <= cand for kept in keep):
            keep.append(cand)
    return frozenset(keep)


def maximize_family(sets: Iterable[Iterable[T]]) -> frozenset[frozenset[T]]:
    """Subset-maximal members of a family of sets."""
    unique = sorted({frozenset(s) for s in sets}, key=len, reverse=True)
    keep: list[frozenset[T]] = []
    for cand in unique:
        if not any(cand <= kept for kept in keep):
            keep.append(cand)
    return frozenset(keep)


def subsets_of(items: Iterable[T]) -> Iterator[frozenset[T]]:
    """All subsets of ``items``, smallest first, deterministic within a size."""
    pool = sorted(set(items))
    for size in range(len(pool) + 1):
        for combo in combinations(pool, size):
            yield frozenset(combo)


def minimal_hitting_sets(family: Iterable[Iterable[T]]) -> frozenset[frozenset[T]]:
    """All subset-minimal sets that intersect every member of ``family``.

    The empty family is hit by the empty set alone, so the result is
    ``{frozenset()}``; a family containing the empty set has no hitting
    sets at all and the result is empty.

    Enumeration branches on the elements of a smallest still-unhit
    member, prunes supersets of hitting sets already found, and finishes
    with an antichain filter, which together make the result exact.
    Each search node is charged to the current meter.
    """
    meter = current_meter()
    base = sorted(minimize_family(family), key=lambda s: (len(s), sorted(s)))
    if not base:
        return frozenset({frozenset()})
    if not base[0]:
        return frozenset()

    found: list[frozenset[T]] = []

    def walk(remaining: tuple[frozenset[T], ...], chosen: frozenset[T]) -> None:
        meter.charge()
        if any(f <= chosen for f in found):
            return
        if not remaining:
            found.append(chosen)
            return
        # remaining keeps base's (len, sorted) order, so the first shortest
        # set is the pivot that order would pick
        pivot = min(remaining, key=len)
        for element in sorted(pivot):
            rest = tuple(s for s in remaining if element not in s)
            walk(rest, chosen | {element})

    walk(tuple(base), frozenset())
    return minimize_family(found)
