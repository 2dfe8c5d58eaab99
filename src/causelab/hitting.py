"""Set-family utilities: antichains and minimal hitting sets.

The hitting-set enumeration is the workhorse behind repairs, diagnoses,
contingency sets and necessary hypothesis sets.  Elements must be
hashable and totally ordered (ground facts are).

The search is MMCS (Murakami & Uno, "Efficient algorithms for
dualizing large-scale hypergraphs", DAM 2014), a depth-first refinement
of Reiter's HS-tree.  A chosen element's *critical* members are those it
alone hits, and a hitting set is minimal iff each of its elements has
one.  So a branch whose new element takes the last critical member of
an earlier one is cut on the spot, and every leaf is a minimal hitting
set.  The *candidates* are the elements a branch may still add: below
each element of a node's pivot, the pivot elements tried after it are
not candidates, so no leaf is reached twice.  Together these replace any
comparison with the sets already found and any closing antichain filter.

The family is first factored into its *components*: two subset-minimal
members are connected when they share an element (a union-find over
the elements).  When a family splits into parts sharing no element, its
minimal hitting sets are exactly the unions of one minimal hitting set
per part (Eiter & Gottlob, "Identifying the minimal transversals of a
hypergraph and related problems", SIAM J. Comput. 1995).  So
:func:`minimal_hitting_sets` runs the search once per component and
returns the product; a set of least size is the union of one least set
per component, so :func:`min_hitting_size` adds the components' minima
and :func:`smallest_hitting_sets` takes the product of their least sets,
each found by branch and bound.  A member of one element is a component
of its own whose element is in every hitting set: those *essential*
elements join every set with no search.  A family of one component,
beside any essential elements, gets exactly the unfactored search and
its charges.

Each component is numbered once, its elements in sorted order, so
every set the search keeps is a Python int bitmask.  A search node is
five ints on an explicit stack: the unhit members, the candidates, the
branch elements (set only at a forced root), the chosen elements, and
the members hit by exactly one chosen element.  A chosen element's
critical members are its members among the last, and the sole chosen
hitter of such a member is the one bit of the member's elements that
is chosen.  A node shares nothing with its siblings, so nothing is
undone, and the search depth is bounded by memory alone.

Asked for the sets that contain one element t (``forced=t``), the
search of t's component starts with t as the root's only branch.  The
critical-member cut then keeps t critical, so every leaf is a minimal
hitting set containing t, reached once, and no subtree without t is
entered: the per-tuple questions (t's contingency sets, the S-repairs
removing t, the diagnoses flagging t) cost only the sets that contain t.

Each call reads the current meter once and charges all its work to
it, so outside a ``with Meter`` block one fresh meter at the default
cap bounds the whole call, not each component alone.  A search node
costs one unit, bounded or not, so branch and bound never charges more
than the plain search of the same component.  The essential elements
cost what the search of the whole family charges for their members: one
node each, and a root when nothing else is searched.  A family of
several components costs one unit per set of the product, all charged
before any product set is built, so a product too large for the budget
fails on it instead of filling memory.

An answer is a :class:`HittingFamily`: the frozenset of its sets, which
also keeps the essential elements and each component's sorted elements
and leaves.  A report ranks it from those (:meth:`HittingFamily.ranking`,
which :mod:`causelab.serialize` reads): each element is ranked once and
each leaf becomes one tuple of ranks, so no element is hashed once per
set holding it.  The family is ranked on each call of
:meth:`~HittingFamily.ranking` and on no other, so an answer no report
prints, as in the cross-check harness, pays nothing for it.
"""
from __future__ import annotations

from bisect import bisect_right
from functools import reduce
from itertools import chain, compress, product, repeat, starmap
from math import prod
from operator import or_
from typing import Hashable, Iterable, TypeVar

from .budget import Meter, current_meter

T = TypeVar("T", bound=Hashable)

_BITS = bytes.maketrans(b"01", b"\0\1")
_EMPTY: frozenset = frozenset()


def minimize_family(sets: Iterable[Iterable[T]]) -> frozenset[frozenset[T]]:
    """Subset-minimal members of a family of sets.

    Each candidate is compared only with the kept sets strictly smaller
    than it, since distinct sets of one size never contain each other:
    a family of equal-size sets takes one linear pass.
    """
    unique = sorted({frozenset(s) for s in sets}, key=len)
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
        if not any(map(cand.issuperset, settled)):
            level.append(cand)
    return frozenset(settled + level)


def maximize_family(sets: Iterable[Iterable[T]]) -> frozenset[frozenset[T]]:
    """Subset-maximal members of a family of sets: within the union U of
    the family, S is a subset of S' iff U - S contains U - S', so they
    are the complements of the minimal complements."""
    family = [frozenset(s) for s in sets]
    union = _EMPTY.union(*family)
    return frozenset(union - s for s in minimize_family(union - s for s in family))


def _bits(h: int) -> bytes:
    # bin(h)[:1:-1] spells h's bits lowest first; as bytes 0/1 they select elements
    return bin(h)[:1:-1].encode().translate(_BITS)


def _root(parent: dict[T, T], x: T) -> T:
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def _numbered(
    family: frozenset[frozenset[T]],
) -> tuple[frozenset[T], list[tuple[list[T], list[int], list[int], dict[T, int]]]] | None:
    """The minimized family cut into components, each numbered once.

    A member of one element is a component of its own whose element is in
    every hitting set, so those elements come back as one set, the
    *essential* elements.  The rest come back as one part per component,
    ordered by smallest element: its elements in sorted order, its members
    in ``(len, sorted)`` order and each element's members as bitmasks over
    them, and each element's number.  So a one-component family is
    numbered as by a search of the whole.  None when the family holds the
    empty set.
    """
    base = sorted(map(sorted, minimize_family(family)), key=lambda s: (len(s), s))
    if base and not base[0]:
        return None
    singletons = bisect_right(base, 1, key=len)
    essential = _EMPTY.union(*base[:singletons])
    base = base[singletons:]
    parent = {x: x for s in base for x in s}
    # a union-find over the elements: each member joins the root of its
    # smallest element
    for s in base:
        a = _root(parent, s[0])
        for x in s:
            parent[_root(parent, x)] = a
    groups: dict[T, list[list[T]]] = {}
    for s in base:
        groups.setdefault(_root(parent, s[0]), []).append(s)
    parts = []
    for rows in groups.values():
        elements = sorted(_EMPTY.union(*rows))
        index = {x: i for i, x in enumerate(elements)}
        members, hits = _masks([[index[x] for x in s] for s in rows], len(elements))
        parts.append((elements, members, hits, index))
    # components share no element, so their first elements decide the order
    return essential, sorted(parts, key=lambda p: p[0][0])


def _masks(rows: list[list[int]], width: int) -> tuple[list[int], list[int]]:
    """Each row of element numbers as a bitmask, and each element's rows."""
    members: list[int] = []
    hits = [0] * width
    for j, row in enumerate(rows):
        bit = 1 << j
        mask = 0
        for i in row:
            mask |= 1 << i
            hits[i] |= bit
        members.append(mask)
    return members, hits


def _mmcs(
    members: list[int], hits: list[int], root: int, meter: Meter, least: str = ""
) -> list[int]:
    """The leaves of the search over one component, as local bitmasks.

    Branches on the lowest-indexed unhit member (a first shortest one),
    trying its candidate elements in sorted order, and cuts a branch whose
    element leaves a chosen element with no critical member.  With
    ``least`` set it is branch and bound for the smallest leaves, from a
    bound of one element per member: a node is cut when its chosen
    elements and the disjoint unhit members :func:`_packs` finds exceed
    the bound.  Each leaf lowers the bound to its own size for
    ``"all"``, whose leaves kept are all the smallest, or below it for
    ``"last"``, whose last leaf found is a smallest one.  Each node is
    charged to ``meter``, bound or not, so a bounded search never charges
    more than the plain one.
    """
    bound = len(members)
    found = []
    stack = [((1 << len(members)) - 1, (1 << len(hits)) - 1, root, 0, 0)]
    while stack:
        unhit, candidates, branch, chosen, once = stack.pop()
        meter.charge()
        if least and _packs(unhit, members, hits, bound - chosen.bit_count()):
            continue
        if not unhit:
            if least:
                size = chosen.bit_count()
                if size < bound:
                    found.clear()
                bound = size if least == "all" else size - 1
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
    return found


def _packs(unhit: int, members: list[int], hits: list[int], room: int) -> bool:
    """True when a greedy set of pairwise-disjoint members among
    ``unhit``, taken shortest first, grows past ``room``: each needs an
    element of its own, so no hitting set adds ``room`` or fewer.  Each
    member taken drops every member sharing an element with it, so the
    work is one step per element of a member taken."""
    while unhit and room >= 0:
        member = members[(unhit & -unhit).bit_length() - 1]
        while member:
            e = member.bit_length() - 1
            unhit &= ~hits[e]
            member ^= 1 << e
        room -= 1
    return room < 0


def _factored(
    family: Iterable[Iterable[T]], forced: T | None, least: str = ""
) -> tuple[frozenset[T], list[tuple[list[T], list[int]]], Meter] | None:
    """The essential elements, each component's elements with the leaves
    of its search in mode ``least``, and the one meter they were charged
    to; None when nothing qualifies: the family holds the empty set, or
    ``forced`` is in no subset-minimal member.

    The split does not depend on ``forced``, so it is computed once per
    ``with Meter`` block for an equal family
    (:meth:`~causelab.budget.Meter.once`), and ``forced`` only picks the
    root branch of its own component's search.  The essential elements
    are charged as the whole-family search would charge their members,
    which come first: one node per member below a root, the last of them
    the root of the rest of the search, so the root is charged here only
    when no component is searched.
    """
    family = frozenset(map(frozenset, family))
    meter = current_meter()
    split = meter.once(("split", family), lambda: _numbered(family))
    if split is None:
        return None
    essential, parts = split
    if forced is not None and forced not in essential and all(forced not in p[3] for p in parts):
        return None
    if essential:
        meter.charge(len(essential) + (not parts))
    leaves = [
        (elements, _mmcs(members, hits, 1 << index[forced] if forced in index else 0, meter, least))
        for elements, members, hits, index in parts
    ]
    return essential, leaves, meter


class HittingFamily(frozenset):
    """A product of component leaves: the frozenset of its sets, which also
    keeps the essential elements and each component's sorted elements and
    leaves, to rank the sets from them when :meth:`ranking` is called."""

    __slots__ = ("_essential", "_parts")

    def __new__(cls, sets: Iterable[frozenset[T]], essential: frozenset[T], parts: list):
        self = super().__new__(cls, sets)
        self._essential, self._parts = essential, parts
        return self

    def __reduce__(self) -> tuple:
        # copied or pickled as the plain frozenset of its sets
        return frozenset, (list(self),)

    def ranking(self) -> tuple[list[T], list[tuple[int, ...]]]:
        """The sorted union of the sets, and each set as the sorted tuple
        of its members' ranks in that union, the tuples in sorted order.

        Each element's rank is looked up once and each leaf becomes one
        tuple of ranks; a set's tuple is its leaves' and the essential
        elements' ranks, sorted, so no element is hashed once per set
        holding it.
        """
        essential, parts = self._essential, self._parts
        used = [compress(elements, _bits(reduce(or_, leaves, 0))) for elements, leaves in parts]
        order = sorted(chain(essential, *used))
        rank = {x: r for r, x in enumerate(order)}.get
        choices = [[tuple(map(rank, essential))]]
        for elements, leaves in parts:
            ranks = list(map(rank, elements, repeat(0)))
            choices.append([tuple(compress(ranks, _bits(h))) for h in leaves])
        combos = map(chain.from_iterable, product(*choices))
        return order, sorted(map(tuple, map(sorted, combos)))


def _product(
    essential: frozenset[T], parts: list[tuple[list[T], list[int]]], meter: Meter
) -> HittingFamily:
    """Every union of the essential elements and one leaf per component.

    Each leaf becomes a frozenset once.  With several components, one unit
    per union is charged to ``meter`` before any is built; one component's
    unions are no more than its leaves, each charged as a search node.  The
    unions are set unions, which reuse the elements' stored hashes.
    """
    if len(parts) > 1:
        meter.charge(prod(len(leaves) for _, leaves in parts))
    sets = [[frozenset(compress(elements, _bits(h))) for h in leaves] for elements, leaves in parts]
    if essential:
        sets.append([essential])
    found = sets[0] if len(sets) == 1 else starmap(_EMPTY.union, product(*sets))
    return HittingFamily(found, essential, parts)


def minimal_hitting_sets(
    family: Iterable[Iterable[T]], forced: T | None = None
) -> frozenset[frozenset[T]]:
    """All subset-minimal sets that intersect every member of ``family``;
    with ``forced``, only those that contain it.

    The empty family is hit by the empty set alone, so the result is
    ``{frozenset()}``; a family containing the empty set has no hitting
    sets at all and the result is empty.  A ``forced`` element in no
    subset-minimal member is in no minimal hitting set: the result is
    empty and nothing is charged.  Otherwise each component is searched
    alone (``forced`` only in its own) and the result is the product.
    """
    found = _factored(family, forced)
    return frozenset() if found is None else _product(*found)


def smallest_hitting_sets(
    family: Iterable[Iterable[T]], forced: T | None = None
) -> frozenset[frozenset[T]]:
    """The minimal hitting sets of least size (with ``forced``, of least
    size among those containing it): the product of each component's
    smallest sets, each found by branch and bound.  Empty exactly when
    :func:`minimal_hitting_sets` is."""
    found = _factored(family, forced, "all")
    return frozenset() if found is None else _product(*found)


def smallest_set_elements(family: Iterable[Iterable[T]]) -> frozenset[T]:
    """The elements in a least hitting set of their own component, the
    essential elements among them; empty when there is no hitting set.

    These are the elements in a least hitting set containing them of the
    smallest size overall: a least set is one least set per component.
    Each component's least sets are found by branch and bound and no
    product is built.
    """
    found = _factored(family, None, "all")
    if found is None:
        return frozenset()
    essential, parts, _ = found
    return essential.union(
        *(compress(elements, _bits(reduce(or_, leaves))) for elements, leaves in parts)
    )


def min_hitting_size(family: Iterable[Iterable[T]], forced: T | None = None) -> int | None:
    """The size of a smallest minimal hitting set (with ``forced``, of one
    containing it), or None when there is none; no set is enumerated.

    The number of essential elements plus each component's minimum, each
    found by branch and bound in the search's order; the empty family's
    is 0.
    """
    found = _factored(family, forced, "last")
    if found is None:
        return None
    essential, parts, _ = found
    return len(essential) + sum(leaves[-1].bit_count() for _, leaves in parts)
