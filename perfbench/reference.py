"""Reference answers for verifying CLI responses.

Nothing here imports causelab: the join, the minimal-transversal
enumeration and the path search are written from the definitions, so a
response that agrees with them was not checked against the code that
produced it.  Facts are tuples ``(relation, arg, ...)``; an atom is a
tuple ``(relation, term, ...)`` whose terms starting with an uppercase
letter are variables.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Iterable


def is_var(term: str) -> bool:
    return term[:1].isupper()


def join(facts: Iterable[tuple], atoms: list[tuple]) -> list[frozenset]:
    """Fact images of every valuation of ``atoms`` into ``facts``.

    Each relation is indexed by its first argument, so the join costs
    about the number of partial matches rather than a scan per atom.
    """
    by_rel: dict[str, list[tuple]] = {}
    by_first: dict[tuple[str, str], list[tuple]] = {}
    for f in set(facts):
        by_rel.setdefault(f[0], []).append(f)
        if len(f) > 1:
            by_first.setdefault((f[0], f[1]), []).append(f)
    images: list[frozenset] = []

    def extend(i: int, binding: dict[str, str], image: tuple) -> None:
        if i == len(atoms):
            images.append(frozenset(image))
            return
        rel, *terms = atoms[i]
        if terms and (not is_var(terms[0]) or terms[0] in binding):
            first = binding.get(terms[0], terms[0])
            pool = by_first.get((rel, first), [])
        else:
            pool = by_rel.get(rel, [])
        for f in pool:
            if len(f) != len(terms) + 1:
                continue
            new = dict(binding)
            for term, value in zip(terms, f[1:]):
                if is_var(term):
                    if new.setdefault(term, value) != value:
                        break
                elif term != value:
                    break
            else:
                extend(i + 1, new, image + (f,))

    extend(0, {}, ())
    return images


def minimal(sets: Iterable[frozenset]) -> set[frozenset]:
    """Subset-minimal members of a family."""
    keep: list[frozenset] = []
    for s in sorted(set(sets), key=len):
        if not any(k <= s for k in keep):
            keep.append(s)
    return set(keep)


def witnesses(facts: Iterable[tuple], atoms: list[tuple]) -> set[frozenset]:
    return minimal(join(facts, atoms))


def _components(family: set[frozenset]) -> list[list[frozenset]]:
    """Split a family into groups of members connected by shared elements."""
    parent: dict = {}

    def find(x):
        while parent[x] is not x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for s in family:
        items = list(s)
        for x in items:
            parent.setdefault(x, x)
        for x in items[1:]:
            a, b = find(items[0]), find(x)
            if a is not b:
                parent[a] = b
    groups: dict = {}
    for s in family:
        groups.setdefault(find(next(iter(s))), []).append(s)
    return list(groups.values())


def _berge(family: list[frozenset]) -> set[frozenset]:
    found: set[frozenset] = {frozenset()}
    for edge in sorted(family, key=len):
        grown = set()
        for h in found:
            if h & edge:
                grown.add(h)
            else:
                grown.update(h | {x} for x in edge)
        found = minimal(grown)
    return found


def transversals(family: Iterable[frozenset]) -> set[frozenset]:
    """All minimal hitting sets: the product of Berge's algorithm over the
    connected components of the family.  ``{{}}`` for the empty family and
    the empty set when the family contains the empty set."""
    members = minimal(family)
    if frozenset() in members:
        return set()
    parts = [_berge(group) for group in _components(members)]
    return {frozenset().union(*combo) for combo in product(*parts)}


def simple_paths(edges: Iterable[tuple[str, str]], source: str, target: str) -> set[frozenset]:
    """Edge sets of the simple directed paths from ``source`` to ``target``."""
    out: dict[str, list[str]] = {}
    for a, b in edges:
        out.setdefault(a, []).append(b)
    paths: set[frozenset] = set()

    def walk(node: str, seen: set[str], used: tuple) -> None:
        if node == target:
            paths.add(frozenset(used))
            return
        for nxt in out.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                walk(nxt, seen, used + (("E", node, nxt),))
                seen.discard(nxt)

    walk(source, {source}, ())
    return paths


def responsibilities(hitting: set[frozenset]) -> dict[tuple, Fraction]:
    """1/|h| for the smallest h containing each element."""
    best: dict[tuple, int] = {}
    for h in hitting:
        for x in h:
            if len(h) < best.get(x, len(h) + 1):
                best[x] = len(h)
    return {x: Fraction(1, n) for x, n in best.items()}
