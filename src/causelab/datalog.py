"""Positive Datalog: rules, semi-naive bottom-up evaluation, ground
derivations and minimal support sets.

Rules have positive bodies only, which keeps entailment monotone; that
monotonicity is what the abduction layer exploits.  Evaluation is
semi-naive: each iteration joins the facts first derived in the previous
round against everything older, so no ground rule instance fires twice.
The joins run on the engine of :mod:`causelab.model`: one
:class:`~causelab.model.FactIndex` over the model grows with each round,
each round's delta gets a small index of its own, and the "old" pool is
the full index with the delta facts skipped.  A rule position is skipped
when its delta has no facts for its atom or when an earlier atom has no
old facts.  The current meter (:func:`causelab.budget.current_meter`)
is charged per candidate fact an index probe returns, not per fact
scanned, and per support combination.  Derivations are recorded while
evaluating and feed the minimal-support computation, a fixpoint over
antichains of base-fact sets restricted to the derived atoms the goals
depend on.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product
from typing import Iterable, Iterator

from .budget import Meter, current_meter
from .hitting import minimize_family
from .model import Atom, Fact, FactIndex, Variable, matches, variable_positions

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


@dataclass(frozen=True)
class DatalogRule:
    """head :- body.  Safe: every head variable occurs in the body."""

    head: Atom
    body: tuple[Atom, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "body", tuple(self.body))
        if not self.body:
            raise ValueError(f"rule for {self.head} needs a nonempty body")
        body_vars = frozenset(v for a in self.body for v in a.variables())
        loose = self.head.variables() - body_vars
        if loose:
            names = ", ".join(sorted(v.name for v in loose))
            raise ValueError(f"unsafe rule: head variables {names} do not occur in the body")

    def __str__(self) -> str:
        return f"{self.head} :- {', '.join(str(a) for a in self.body)}."


def rule(head: Atom, *body: Atom) -> DatalogRule:
    return DatalogRule(head, tuple(body))


@dataclass(frozen=True)
class DatalogProgram:
    """A list of rules; the answer predicate, if defined, is zero-ary."""

    rules: tuple[DatalogRule, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))
        for r in self.rules:
            if r.head.relation == ANSWER_PREDICATE and r.head.terms:
                raise ValueError(f"the answer predicate {ANSWER_PREDICATE!r} must be zero-ary")

    def head_predicates(self) -> frozenset[str]:
        return frozenset(r.head.relation for r in self.rules)

    def answer_atom(self) -> Fact:
        return Fact(ANSWER_PREDICATE, ())

    def __str__(self) -> str:
        return "\n".join(str(r) for r in self.rules)


def _old_is_empty(full: FactIndex, delta: FactIndex, a: Atom) -> bool:
    group = (a.relation, a.arity)
    return full.size(group) == delta.size(group)


def _seminaive(
    program: DatalogProgram, facts: Iterable[Fact], meter: Meter
) -> tuple[frozenset[Fact], dict[Fact, set[frozenset[Fact]]]]:
    model: set[Fact] = set(facts)
    full = FactIndex(model)
    delta: set[Fact] = set(model)
    derivations: dict[Fact, set[frozenset[Fact]]] = {}
    while delta:
        delta_index = FactIndex(delta)
        fresh: set[Fact] = set()
        for r in program.rules:
            sources = variable_positions(r.body)
            # Head terms as (atom, position) of a body match; constants as (-1, value).
            head = [sources[t] if isinstance(t, Variable) else (-1, t) for t in r.head.terms]
            for i, a in enumerate(r.body):
                if not delta_index.size((a.relation, a.arity)) or any(
                    _old_is_empty(full, delta_index, b) for b in r.body[:i]
                ):
                    continue
                for m in matches(full, r.body, meter, (i, delta_index, delta)):
                    derived = Fact(
                        r.head.relation, tuple(p if k < 0 else m[k].args[p] for k, p in head)
                    )
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
    """True iff every goal atom is in the least fixpoint."""
    return frozenset(goals) <= evaluate(program, facts)


def _combine(
    antichains: list[frozenset[frozenset[Fact]]], meter: Meter
) -> Iterator[frozenset[Fact]]:
    """Unions of one support per factor; nothing when a factor is empty."""
    for combo in product(*antichains):
        meter.charge()
        yield frozenset().union(*combo)


def minimal_supports(
    program: DatalogProgram, facts: Iterable[Fact], goals: Iterable[Fact]
) -> frozenset[frozenset[Fact]]:
    """All subset-minimal sets of base facts from which the program derives
    every goal atom.

    Computed over the recorded ground derivations: a base fact supports
    itself, a derived atom is supported by any union of supports of the
    atoms in one of its derivation bodies, and a fixpoint over these
    antichains handles recursion.  Empty when the goals are not entailed
    by the full fact set.
    """
    base = frozenset(facts)
    goal_set = frozenset(goals)
    meter = current_meter()
    model, derivations = _seminaive(program, base, meter)
    if not goal_set <= model:
        return frozenset()

    # Only derived atoms the goals depend on can contribute to their supports.
    needed: set[Fact] = set()
    stack = [g for g in goal_set if g in derivations]
    while stack:
        head = stack.pop()
        if head not in needed:
            needed.add(head)
            stack.extend(b for body in derivations[head] for b in body if b in derivations)
    heads = [h for h in derivations if h in needed]

    supports: dict[Fact, frozenset[frozenset[Fact]]] = {
        f: frozenset({frozenset({f})}) for f in base
    }
    for head in heads:
        supports.setdefault(head, frozenset())

    changed = True
    while changed:
        changed = False
        for head in heads:
            old = supports[head]
            combos = chain.from_iterable(
                _combine([supports[b] for b in sorted(body)], meter) for body in derivations[head]
            )
            new = supports[head] = minimize_family(chain(old, combos))
            changed = changed or new != old

    goal_factors = [supports.get(g, frozenset()) for g in sorted(goal_set)]
    return minimize_family(_combine(goal_factors, meter))
