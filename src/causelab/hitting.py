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

Elements and members are numbered once per call in sorted order, so
every set the search keeps is a Python int bitmask, and a search node
is five of them on an explicit stack: the unhit members, the
candidates, the branch elements (set only at a forced root), the chosen
elements, and the members hit by exactly one chosen element.  A chosen
element's critical members are its members among the last, and the
sole chosen hitter of such a member is the one bit of the member's
elements that is chosen.  A node shares nothing with its siblings, so
nothing is undone, and the search depth is bounded by memory alone.

Asked for the sets that contain one element t (``forced=t``), the
search starts with t as the root's only branch.  The critical-member cut
then keeps t critical, so every leaf is a minimal hitting set containing
t, reached once, and no subtree without t is entered: the per-tuple
questions (t's contingency sets, the S-repairs removing t, the diagnoses
flagging t) cost only the sets that contain t.
"""
from __future__ import annotations

from itertools import compress
from typing import Hashable, Iterable, TypeVar

from .budget import current_meter

T = TypeVar("T", bound=Hashable)

_BITS = bytes.maketrans(b"01", b"\0\1")


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
    Each search node is charged to the current meter.
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
    hits = [0] * len(elements)
    for j, s in enumerate(base):
        for x in s:
            hits[index[x]] |= 1 << j
    found: list[int] = []
    root = 0 if forced is None else 1 << index[forced]
    stack = [((1 << len(base)) - 1, (1 << len(elements)) - 1, root, 0, 0)]
    while stack:
        unhit, candidates, branch, chosen, once = stack.pop()
        meter.charge()
        if not unhit:
            found.append(chosen)
            continue
        branch = branch or candidates & members[(unhit & -unhit).bit_length() - 1]
        candidates &= ~branch
        # highest element first, so the lowest is popped first; each
        # child may still add the branch elements below its own
        while branch:
            e = branch.bit_length() - 1
            branch ^= 1 << e
            shared = once & hits[e]
            now_once = (once ^ shared) | (unhit & hits[e])
            while shared:
                o = (members[(shared & -shared).bit_length() - 1] & chosen).bit_length() - 1
                if not hits[o] & now_once:
                    break
                shared &= ~hits[o]
            else:
                stack.append((unhit & ~hits[e], candidates | branch, 0, chosen | (1 << e), now_once))
    # bin(h)[:1:-1] spells h's bits lowest first; as bytes 0/1 they select elements
    return frozenset(
        frozenset(compress(elements, bin(h)[:1:-1].encode().translate(_BITS))) for h in found
    )
