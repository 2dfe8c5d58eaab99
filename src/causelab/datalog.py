"""Positive Datalog: rules, semi-naive bottom-up evaluation, ground
derivations and minimal support sets.

Rules have positive bodies only, which keeps entailment monotone; that
monotonicity is what the abduction layer exploits.  Evaluation is
semi-naive: each iteration joins the facts first derived in the previous
round against everything older, so no ground rule instance fires twice.
The joins run on the engine of :mod:`causelab.model`: one
:class:`~causelab.model.FactIndex` over the model grows in place with
each round, and the "old" pool is the full index with the delta facts
skipped.  A map from each (relation, arity) group to the rule positions
whose atom is in it is built once per fixpoint, so a round's cost
follows its delta: it groups the delta in a plain dict and visits, in
(rule, position) order, only the positions of the groups the delta
holds whose earlier atoms have old facts.  Each position's
:class:`~causelab.model.Join` is prepared the first time it is visited,
on the index's live tables, and each round hands it only the delta
rows of its group and the delta as the skip set.  A delta atom's rows
are filtered on its constants.  The current meter
(:func:`causelab.budget.current_meter`) is charged per candidate fact an
index probe or the delta filter returns, not per fact scanned, and per
support combination.

:func:`evaluate` and :func:`ground_derivations` compute the whole model.
:func:`entails` and :func:`minimal_supports` are goal-directed: they
evaluate the magic-sets rewrite of the program for their goals
(Bancilhon, Maier, Sagiv & Ullman, PODS 1986; Beeri & Ramakrishnan, JLP
1991), which derives only the facts the goals demand.  On a transitive
closure chain of n edges that is n ``T`` facts, not n(n+1)/2.  Its
derivations, with the magic guards stripped, feed the minimal-support
computation, a fixpoint over antichains of base-fact sets restricted to
the derived atoms the goals depend on; each set is an int bitset over
the base facts, numbered as they are first met.

A derived head is built from a rule's parsed constants and the
arguments of matched facts, all checked when they entered, so the
engine builds it with ``tuple.__new__`` and skips
:class:`~causelab.model.Fact`'s field check.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import chain, compress, count, product
from operator import or_
from typing import Iterable, Iterator

from .budget import Meter, current_meter
from .hitting import _bits
from .model import Atom, Fact, FactIndex, Join, Variable, _rebuilt, _stored_hash, variable_positions

__all__ = [
    "DatalogRule",
    "DatalogProgram",
    "rule",
    "evaluate",
    "ground_derivations",
    "entails",
    "minimal_supports",
]

#: The zero-ary predicate whose atom is a program's default observation.
ANSWER_PREDICATE = "ans"
_ANSWER_ATOM = Fact(ANSWER_PREDICATE, ())


@dataclass(frozen=True)
class DatalogRule:
    """head :- body.  Safe: every head variable occurs in the body."""

    head: Atom
    body: tuple[Atom, ...]
    #: Each head term as the (atom, position) of its variable's first
    #: occurrence in the body, or as (-1, constant): built once, it takes
    #: no part in ``==``, ``hash`` or ``repr``.
    _head_sources: tuple[tuple[int, object], ...] = field(init=False, repr=False, compare=False)
    #: ``hash((head, body))``, computed once; it takes no part in ``==``
    #: or ``repr``.
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "body", tuple(self.body))
        if not self.body:
            raise ValueError(f"rule for {self.head} needs a nonempty body")
        sources = variable_positions(self.body)
        loose = self.head.variables() - sources.keys()
        if loose:
            names = ", ".join(sorted(v.name for v in loose))
            raise ValueError(f"unsafe rule: head variables {names} do not occur in the body")
        head = tuple(sources[t] if isinstance(t, Variable) else (-1, t) for t in self.head.terms)
        object.__setattr__(self, "_head_sources", head)
        object.__setattr__(self, "_hash", hash((self.head, self.body)))

    __hash__ = _stored_hash
    __reduce__ = _rebuilt

    def __str__(self) -> str:
        return f"{self.head} :- {', '.join(str(a) for a in self.body)}."


def rule(head: Atom, *body: Atom) -> DatalogRule:
    return DatalogRule(head, tuple(body))


@dataclass(frozen=True)
class DatalogProgram:
    """A list of rules; the answer predicate, if defined, is zero-ary."""

    rules: tuple[DatalogRule, ...]
    #: ``hash(rules)``, computed once; it takes no part in ``==`` or ``repr``.
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))
        for r in self.rules:
            if r.head.relation == ANSWER_PREDICATE and r.head.terms:
                raise ValueError(f"the answer predicate {ANSWER_PREDICATE!r} must be zero-ary")
        object.__setattr__(self, "_hash", hash(self.rules))

    __hash__ = _stored_hash
    __reduce__ = _rebuilt

    def head_predicates(self) -> frozenset[str]:
        return frozenset(r.head.relation for r in self.rules)

    def answer_atom(self) -> Fact:
        return _ANSWER_ATOM

    def __str__(self) -> str:
        return "\n".join(str(r) for r in self.rules)


def _seminaive(
    program: DatalogProgram, facts: Iterable[Fact], meter: Meter
) -> tuple[frozenset[Fact], dict[Fact, set[frozenset[Fact]]]]:
    model: set[Fact] = set(facts)
    full = FactIndex(model)
    delta: set[Fact] = set(model)
    derivations: dict[Fact, set[frozenset[Fact]]] = {}
    # One entry per (rule, position), listed under its atom's group: its
    # number in (rule, position) order, the rule, the position, its group,
    # the groups before it, and its join once it is prepared.
    dispatch: dict[tuple[str, int], list[list]] = {}
    number = count()
    for r in program.rules:
        groups = [(a.relation, a.arity) for a in r.body]
        for i, g in enumerate(groups):
            dispatch.setdefault(g, []).append([next(number), r, i, g, groups[:i], None])
    while delta:
        by_group: dict[tuple[str, int], list[Fact]] = {}
        for f in delta:
            by_group.setdefault((f.relation, len(f.args)), []).append(f)
        fresh: set[Fact] = set()
        # one group's entries are in order already; several are merged
        hit = [dispatch[g] for g in by_group if g in dispatch]
        for entry in hit[0] if len(hit) == 1 else sorted(chain.from_iterable(hit)):
            _, r, i, group, earlier, join = entry
            if join is None:
                # skip while an earlier atom has no facts outside the delta;
                # once it has some, it has some in every later round
                if any(full.size(g) == len(by_group.get(g, ())) for g in earlier):
                    continue
                join = entry[5] = Join(full, r.body, meter, i)
            relation, head = r.head.relation, r._head_sources
            for m in join(by_group[group], delta):
                args = tuple([p if k < 0 else m[k].args[p] for k, p in head])
                derived = tuple.__new__(Fact, (relation, args))
                derivations.setdefault(derived, set()).add(frozenset(m))
                if derived not in model:
                    fresh.add(derived)
        model |= fresh
        full.add(fresh)
        delta = fresh
    return frozenset(model), derivations


def evaluate(program: DatalogProgram, facts: Iterable[Fact]) -> frozenset[Fact]:
    """The least fixpoint of the program over the given facts: the facts
    themselves plus every derivable ground atom."""
    model, _ = _seminaive(program, facts, current_meter())
    return model


def ground_derivations(
    program: DatalogProgram, facts: Iterable[Fact]
) -> tuple[frozenset[Fact], dict[Fact, set[frozenset[Fact]]]]:
    """The model together with every ground rule instance that fires in it,
    keyed by derived head and valued by the set of instantiated bodies."""
    return _seminaive(program, facts, current_meter())


def entails(program: DatalogProgram, facts: Iterable[Fact], goals: Iterable[Fact]) -> bool:
    """True iff every goal atom is in the least fixpoint.  Evaluates the
    demand program of the goals, not the whole model."""
    entailed, _, _ = _demand_fixpoint(program, frozenset(facts), frozenset(goals), current_meter())
    return entailed


def _magic_name(relation: str, adornment: str) -> str:
    # ':' and '/' never occur in a parsed relation name
    return f"magic:{relation}/{adornment}"


def _magic_atom(a: Atom, adornment: str) -> Atom:
    """The demand for ``a`` under ``adornment``: its bound terms, on the
    magic predicate of its relation and adornment."""
    bound = tuple(t for t, x in zip(a.terms, adornment) if x == "b")
    return Atom(_magic_name(a.relation, adornment), bound)


@lru_cache(maxsize=256)
def _demand_program(
    program: DatalogProgram, goals: frozenset[tuple[str, int]]
) -> tuple[DatalogProgram, frozenset[str]]:
    """The magic-sets rewrite of ``program`` for ground goals of the given
    (relation, arity) pairs, and the names of its magic predicates.

    Adornments mark each argument bound (b) or free (f).  A goal is bound
    in every argument; in a rule body, bindings pass left to right from
    the head's bound arguments, and a term is bound when it is a constant
    or a variable bound before it.  A rule reached under an adornment
    becomes the original rule plus one guard atom, last, on the head's
    magic predicate, so the rewritten program derives only true facts;
    each derived body atom demands its bound arguments through a magic
    rule whose body is the guard after the atoms to its left.  With no
    bound argument anywhere there is nothing to prune, and the program
    comes back as it is.
    """
    heads = {(r.head.relation, r.head.arity) for r in program.rules}
    todo = sorted((relation, "b" * arity) for relation, arity in goals & heads)
    seen = set(todo)
    rules: dict[DatalogRule, None] = {}
    for relation, adornment in todo:  # grows while it is walked
        for r in program.rules:
            if r.head.relation != relation or r.head.arity != len(adornment):
                continue
            guard = _magic_atom(r.head, adornment)
            bound = {t for t, x in zip(r.head.terms, adornment) if x == "b"}
            for i, a in enumerate(r.body):
                if (a.relation, a.arity) in heads:
                    demand = "".join(
                        "b" if not isinstance(t, Variable) or t in bound else "f" for t in a.terms
                    )
                    magic = _magic_atom(a, demand)
                    if i or magic != guard:
                        rules[DatalogRule(magic, r.body[:i] + (guard,))] = None
                    if (a.relation, demand) not in seen:
                        seen.add((a.relation, demand))
                        todo.append((a.relation, demand))
                bound |= a.variables()
            rules[DatalogRule(r.head, r.body + (guard,))] = None
    if not any("b" in adornment for _, adornment in seen):
        return program, frozenset()
    return DatalogProgram(tuple(rules)), frozenset(_magic_name(*p) for p in seen)


def _demand_fixpoint(
    program: DatalogProgram, base: frozenset[Fact], goals: frozenset[Fact], meter: Meter
) -> tuple[bool, dict[Fact, set[frozenset[Fact]]], frozenset[str]]:
    """Whether the goals are entailed, the ground derivations of the demand
    program, magic facts included, and the names of its magic predicates:
    one fixpoint of the demand program, seeded with the goals' magic facts."""
    rewritten, magic = _demand_program(program, frozenset((g.relation, g.arity) for g in goals))
    seeds = (
        tuple.__new__(Fact, (_magic_name(g.relation, "b" * g.arity), g.args)) for g in goals
    )
    start = base.union(s for s in seeds if s.relation in magic) if magic else base
    model, derivations = _seminaive(rewritten, start, meter)
    # the program derives no fact on a magic predicate, so only a base
    # fact can meet a goal there
    entailed = all(g in base if g.relation in magic else g in model for g in goals)
    return entailed, derivations, magic


def _demanded(
    program: DatalogProgram, base: frozenset[Fact], goals: frozenset[Fact], meter: Meter
) -> tuple[bool, dict[Fact, set[frozenset[Fact]]]]:
    """Whether the goals are entailed, and the ground derivations of the
    facts the goals demand (see :func:`_demand_fixpoint`).  The magic facts
    are dropped, from the derivations and from their bodies, where each is
    a guard; :func:`entails` reads no derivation and skips this."""
    entailed, derivations, magic = _demand_fixpoint(program, base, goals, meter)
    if magic:
        derivations = {
            head: {frozenset(f for f in body if f.relation not in magic) for body in bodies}
            for head, bodies in derivations.items()
            if head.relation not in magic
        }
    return entailed, derivations


def _combine(antichains: list[frozenset[int]], meter: Meter) -> Iterator[int]:
    """Unions of one support per factor; nothing when a factor is empty."""
    for combo in product(*antichains):
        meter.charge()
        yield reduce(or_, combo, 0)


def _minimal(supports: Iterable[int]) -> frozenset[int]:
    """The subset-minimal bitsets, kept smallest first: a set is dropped
    when a kept one is inside it."""
    kept: list[int] = []
    for c in sorted(set(supports), key=int.bit_count):
        for k in kept:
            if k & c == k:
                break
        else:
            kept.append(c)
    return frozenset(kept)


def minimal_supports(
    program: DatalogProgram, facts: Iterable[Fact], goals: Iterable[Fact]
) -> frozenset[frozenset[Fact]]:
    """All subset-minimal sets of base facts from which the program derives
    every goal atom.

    Computed over the ground derivations of the goals' demand program
    (see :func:`_demand_program`), which records every rule instance with
    true body atoms for each fact the goals demand: a base fact supports
    itself, a derived atom is supported by any union of supports of the
    atoms in one of its derivation bodies, and a fixpoint over these
    antichains handles recursion.  Each base fact is numbered as it is
    first met, so a support is an int bitset: a union is ``|`` and
    containment ``k & c == k``; supports become fact sets only in the
    answer.  Empty when the goals are not entailed by the full fact set.
    Computed once per ``with Meter`` block for equal inputs
    (:meth:`~causelab.budget.Meter.once`).
    """
    base, goal_set, meter = frozenset(facts), frozenset(goals), current_meter()
    key = ("supports", program, base, goal_set)
    return meter.once(key, lambda: _minimal_supports(program, base, goal_set, meter))


def _minimal_supports(
    program: DatalogProgram, base: frozenset[Fact], goal_set: frozenset[Fact], meter: Meter
) -> frozenset[frozenset[Fact]]:
    entailed, derivations = _demanded(program, base, goal_set, meter)
    if not entailed:
        return frozenset()

    # Only derived atoms the goals depend on can contribute to their supports.
    needed: set[Fact] = set()
    stack = [g for g in goal_set if g in derivations]
    while stack:
        head = stack.pop()
        if head not in needed:
            needed.add(head)
            stack.extend(b for body in derivations[head] for b in body if b in derivations)
    bodies = {h: [sorted(body) for body in derivations[h]] for h in derivations if h in needed}
    goal_list = sorted(goal_set)

    # Each base fact met (a needed head, a body member or a goal) supports
    # itself; its bit is its place in the order first met.
    met = chain(bodies, chain.from_iterable(chain.from_iterable(bodies.values())), goal_list)
    members = list(dict.fromkeys(f for f in met if f in base))
    supports: dict[Fact, frozenset[int]] = dict.fromkeys(bodies, frozenset())
    supports.update((f, frozenset({1 << k})) for k, f in enumerate(members))

    changed = True
    while changed:
        changed = False
        for head, rows in bodies.items():
            old = supports[head]
            combos = chain.from_iterable(
                _combine([supports[b] for b in body], meter) for body in rows
            )
            new = supports[head] = _minimal(chain(old, combos))
            changed = changed or new != old

    found = _minimal(_combine([supports[g] for g in goal_list], meter))
    return frozenset(frozenset(compress(members, _bits(s))) for s in found)
