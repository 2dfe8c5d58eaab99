"""Relational data model and boolean conjunctive query evaluation.

Schemas, ground facts, instances with an endogenous/exogenous partition,
boolean conjunctive queries, plus query evaluation and minimal-witness
enumeration.  A denial constraint forbids exactly the pattern of a query
and its violation view is that query, so :data:`DenialConstraint` is the
query itself and :func:`satisfies_dc` is the one place that negates it.

Join engine
-----------
:func:`matches` is the one join behind query evaluation, witnesses and
the Datalog fixpoint.  A :class:`FactIndex` groups facts by relation and
builds a hash table on a tuple of argument positions the first time a
probe needs it.  Each atom tuple gets a static plan, cached with a bound:
atoms with the most bound terms go first, and each step probes the index
on its bound positions, binds the free ones and checks repeated
variables.  The walk over the steps is depth first on an explicit stack
of candidate iterators, so a body of any length stays within Python's
recursion limit.  The engine yields the matched facts, so witnesses and
derivation bodies reuse them instead of grounding new ones.  The
request's meter (:func:`causelab.budget.current_meter`) is charged per
candidate fact a probe returns, by evaluation and witness enumeration
alike.

Conventions
-----------
Constants are opaque strings; there are no typed attributes.  In textual
form variables start with an uppercase letter and constants start with a
lowercase letter or are double-quoted; the :func:`atom` helper applies
the same convention to bare strings.  Every value here except a
:class:`FactIndex`, which each caller builds for itself, is immutable and
every operation is a pure function apart from charging the current
meter, which is per thread and per task, so concurrent use is safe.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from heapq import heappop, heappush
from operator import itemgetter
from typing import AbstractSet, Iterable, Iterator, Mapping, NamedTuple, Sequence, TypeAlias

from .budget import Meter, current_meter
from .errors import SchemaError
from .hitting import minimize_family

__all__ = [
    "RelationSchema",
    "Fact",
    "fact",
    "Variable",
    "Term",
    "Atom",
    "atom",
    "ConjunctiveQuery",
    "DenialConstraint",
    "Witness",
    "Instance",
    "check_query_schema",
    "ground_atom",
    "FactIndex",
    "matches",
    "variable_positions",
    "valuations",
    "eval_bcq",
    "witnesses",
    "satisfies_dc",
]

#: A name written without quotes: a relation, a variable or a constant.
BARE_NAME = re.compile(r"[A-Za-z0-9_]+")


def is_variable_name(name: str) -> bool:
    """Names starting with an uppercase letter or an underscore are variables."""
    return name[:1].isupper() or name[:1] == "_"


def format_constant(value: str) -> str:
    """Render a constant, quoting it when it does not look like one."""
    if BARE_NAME.fullmatch(value) and not is_variable_name(value):
        return value
    escaped = value.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


@dataclass(frozen=True, order=True)
class RelationSchema:
    """A relation name with a fixed positive arity."""

    name: str
    arity: int

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ValueError("relation name must be nonempty")
        if self.arity < 1:
            raise ValueError(f"arity of {self.name!r} must be at least 1, got {self.arity}")


# a NamedTuple cannot override __new__, so Fact checks its fields in a subclass
class _FactFields(NamedTuple):
    relation: str
    args: tuple[str, ...]


class Fact(_FactFields):
    """A ground tuple: a relation name plus constant arguments.

    A fact is its plain ``(relation, args)`` tuple: it hashes, compares
    and sorts as that tuple does, in C, so ``sorted`` gives the canonical
    order (relation name, then constants, lexicographically).

    Each value is checked once, where it enters: ``Fact(...)``,
    :func:`fact` and :func:`ground_atom` check their fields, because
    they take outside input.  Code that builds a fact from parts already
    checked (the loader's rows, a parsed atom, a derived rule head)
    calls ``tuple.__new__(Fact, (relation, args))`` and skips the check.
    """

    __slots__ = ()

    def __new__(cls, relation: str, args: Iterable[str] = ()) -> Fact:
        args = tuple(args)
        if not isinstance(relation, str) or not relation:
            raise ValueError("a fact needs a relation name")
        if not all(isinstance(a, str) for a in args):
            raise ValueError("fact arguments must be strings")
        return tuple.__new__(cls, (relation, args))

    @property
    def arity(self) -> int:
        return len(self.args)

    def __str__(self) -> str:
        return _atom_text(self.relation, self.args)


def _signatures(facts: AbstractSet[Fact]) -> set[tuple[str, int]]:
    """The facts' (relation, arity) pairs, gathered in C."""
    return set(zip(map(itemgetter(0), facts), map(len, map(itemgetter(1), facts))))


def fact(relation: str, *args: str) -> Fact:
    """Shorthand: ``fact("R", "a", "b") == Fact("R", ("a", "b"))``."""
    return Fact(relation, tuple(args))


@dataclass(frozen=True, order=True)
class Variable:
    """A query variable, distinct from constant strings."""

    name: str

    def __str__(self) -> str:
        return self.name


Term: TypeAlias = Variable | str


@dataclass(frozen=True)
class Atom:
    """A relational atom whose terms are variables or constants."""

    relation: str
    terms: tuple[Term, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(self.terms))
        if not isinstance(self.relation, str) or not self.relation:
            raise ValueError("an atom needs a relation name")
        for t in self.terms:
            if not isinstance(t, (Variable, str)):
                raise ValueError(f"atom term must be a Variable or a constant string, got {t!r}")

    @property
    def arity(self) -> int:
        return len(self.terms)

    def variables(self) -> frozenset[Variable]:
        return frozenset(t for t in self.terms if isinstance(t, Variable))

    def is_ground(self) -> bool:
        return not any(isinstance(t, Variable) for t in self.terms)

    def __str__(self) -> str:
        return _atom_text(self.relation, self.terms)


def _atom_text(relation: str, terms: tuple[Term, ...]) -> str:
    """The input syntax of an atom or fact: constants quoted where needed."""
    if not terms:
        return relation
    rendered = ", ".join(t.name if isinstance(t, Variable) else format_constant(t) for t in terms)
    return f"{relation}({rendered})"


def atom(relation: str, *terms: Term) -> Atom:
    """Build an atom applying the textual convention to bare strings:
    strings starting with an uppercase letter or underscore become
    variables, everything else is a constant."""
    return Atom(
        relation,
        tuple(Variable(t) if isinstance(t, str) and is_variable_name(t) else t for t in terms),
    )


@dataclass(frozen=True)
class ConjunctiveQuery:
    """A boolean conjunctive query: the existential closure of a nonempty
    tuple of atoms, written as a comma-separated body.

    There are no free head variables; self-joins and duplicate atoms are
    permitted (duplicates are harmless for the semantics).
    """

    atoms: tuple[Atom, ...]

    def __post_init__(self) -> None:
        out = tuple(self.atoms)
        if not out:
            raise ValueError("the atom list must be nonempty")
        for a in out:
            if not isinstance(a, Atom):
                raise ValueError(f"expected an Atom, got {a!r}")
        object.__setattr__(self, "atoms", out)

    def __str__(self) -> str:
        return ", ".join(str(a) for a in self.atoms)


#: The denial constraint forbidding a query's pattern.  Its violation
#: view is the query itself, so a constraint is the query it forbids;
#: only :func:`satisfies_dc` reads it negated.
DenialConstraint: TypeAlias = ConjunctiveQuery

#: A minimal support set: the query holds on exactly this set of facts
#: and on no proper subset.
Witness: TypeAlias = frozenset[Fact]


@dataclass(frozen=True)
class Instance:
    """A database whose facts are partitioned into endogenous and exogenous.

    A fact lives in exactly one part; overlap is rejected.  Every fact
    must conform to a declared relation schema: the set of the facts'
    (relation, arity) pairs, gathered in C, must lie within the declared
    ones.  An error names the smallest offender in canonical order, so
    its text does not depend on set iteration order.
    """

    schemas: frozenset[RelationSchema]
    endogenous: frozenset[Fact] = frozenset()
    exogenous: frozenset[Fact] = frozenset()
    #: The full instance: endogenous and exogenous facts together, built
    #: once; it takes no part in ``==``, ``hash`` or ``repr``.
    facts: frozenset[Fact] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "schemas", frozenset(self.schemas))
        object.__setattr__(self, "endogenous", frozenset(self.endogenous))
        object.__setattr__(self, "exogenous", frozenset(self.exogenous))
        arities = {s.name: s.arity for s in self.schemas}
        if len(arities) < len(self.schemas):
            names = sorted(s.name for s in self.schemas)
            twice = next(a for a, b in zip(names, names[1:]) if a == b)
            raise ValueError(f"relation {twice!r} is declared twice")
        overlap = self.endogenous & self.exogenous
        if overlap:
            listing = ", ".join(str(f) for f in sorted(overlap))
            raise ValueError(f"facts cannot be both endogenous and exogenous: {listing}")
        facts = self.endogenous | self.exogenous
        object.__setattr__(self, "facts", facts)
        if not _signatures(facts).issubset(arities.items()):
            f = min(f for f in facts if arities.get(f.relation) != f.arity)
            declared = arities.get(f.relation)
            if declared is None:
                raise SchemaError(f"fact {f} uses the undeclared relation {f.relation!r}")
            raise SchemaError(
                f"fact {f} has arity {f.arity}, but {f.relation!r} is declared with arity {declared}"
            )

    def all_endogenous(self) -> "Instance":
        """The same facts with the whole instance treated as endogenous."""
        return Instance(self.schemas, self.facts, frozenset())

    def with_endogenous(self, f: Fact) -> "Instance":
        return Instance(self.schemas, self.endogenous | {f}, self.exogenous)

    @classmethod
    def infer(cls, endogenous: Iterable[Fact] = (), exogenous: Iterable[Fact] = ()) -> "Instance":
        """Build an instance inferring the schemas from the facts given.

        A relation used with several arities is an error that names the
        smallest such relation and its two smallest arities."""
        endo = frozenset(endogenous)
        exo = frozenset(exogenous)
        used = sorted(_signatures(endo | exo))
        for (name, arity), (other, other_arity) in zip(used, used[1:]):
            if name == other:
                raise SchemaError(f"relation {name!r} is used with arities {arity} and {other_arity}")
        return cls(frozenset(RelationSchema(name, arity) for name, arity in used), endo, exo)


def check_query_schema(query: ConjunctiveQuery, schemas: frozenset[RelationSchema] | None) -> None:
    """Raise SchemaError when the query mentions an undeclared relation or
    uses one at the wrong arity.  No-op when schemas is None."""
    if schemas is None:
        return
    arities = {s.name: s.arity for s in schemas}
    for a in query.atoms:
        declared = arities.get(a.relation)
        if declared is None:
            raise SchemaError(f"query atom {a} uses the undeclared relation {a.relation!r}")
        if declared != a.arity:
            raise SchemaError(
                f"query atom {a} has arity {a.arity}, but {a.relation!r} is declared with arity {declared}"
            )


def ground_atom(a: Atom, valuation: Mapping[Variable, str]) -> Fact:
    """Apply a valuation to an atom, producing a ground fact."""
    return Fact(
        a.relation,
        tuple(valuation[t] if isinstance(t, Variable) else t for t in a.terms),
    )


def variable_positions(atoms: Iterable[Atom]) -> dict[Variable, tuple[int, int]]:
    """Where each variable first occurs: (atom index, argument position)."""
    out: dict[Variable, tuple[int, int]] = {}
    for k, a in enumerate(atoms):
        for p, t in enumerate(a.terms):
            if isinstance(t, Variable):
                out.setdefault(t, (k, p))
    return out


#: Facts of one relation at one arity.
_Group: TypeAlias = tuple[str, int]


class FactIndex:
    """Facts grouped by relation and arity, plus hash tables on tuples of
    argument positions, each built the first time a lookup needs it.

    :meth:`add` extends the groups and every table already built, so one
    index can grow across fixpoint rounds.  A table key is the bare
    argument for one position and the tuple of arguments for several.
    """

    __slots__ = ("groups", "_tables")

    def __init__(self, facts: Iterable[Fact] = ()) -> None:
        self.groups: dict[_Group, list[Fact]] = {}
        self._tables: dict[tuple[_Group, tuple[int, ...]], dict[object, list[Fact]]] = {}
        self.add(facts)

    def add(self, facts: Iterable[Fact]) -> None:
        fresh: dict[_Group, list[Fact]] = {}
        for f in facts:
            fresh.setdefault((f.relation, len(f.args)), []).append(f)
        for group, new in fresh.items():
            self.groups.setdefault(group, []).extend(new)
        for (group, positions), table in self._tables.items():
            if group in fresh:
                _fill(table, positions, fresh[group])

    def size(self, group: _Group) -> int:
        return len(self.groups.get(group, ()))

    def table(self, group: _Group, positions: tuple[int, ...]) -> dict[object, list[Fact]]:
        table = self._tables.get((group, positions))
        if table is None:
            table = self._tables[(group, positions)] = {}
            _fill(table, positions, self.groups.get(group, ()))
        return table


def _fill(
    table: dict[object, list[Fact]], positions: tuple[int, ...], facts: Iterable[Fact]
) -> None:
    key_of = itemgetter(*positions)
    for f in facts:
        table.setdefault(key_of(f.args), []).append(f)


@lru_cache(maxsize=1024)
def _plan(atoms: tuple[Atom, ...], first: int | None) -> tuple[tuple, tuple]:
    """Static join order for ``atoms``: ``first`` (if given) leads, then
    repeatedly the atom with the most bound terms, earliest on ties.

    Constants and variables each own a slot of the binding array.
    Returns the steps and the initial slots (constants filled, variables
    None).  A step is (atom index, group, probed positions, getter of the
    probe key from the slots, (position, slot) pairs to bind, (position,
    position) pairs that must agree).
    """
    slots: dict[Term, int] = {}
    steps = []
    # each atom's count of bound terms, raised as its variables get bound,
    # and a heap entry (-count, index) per raise: an atom's latest entry
    # pops before its older ones, so an entry whose atom is placed is stale
    bound = [sum(not isinstance(t, Variable) for t in a.terms) for a in atoms]
    occurs: dict[Term, list[int]] = {}
    for i, a in enumerate(atoms):
        for t in a.terms:
            occurs.setdefault(t, []).append(i)
    heap = sorted((-b, i) for i, b in enumerate(bound))  # a sorted list is a heap
    placed = [False] * len(atoms)
    for _ in atoms:
        k = first if first is not None and not steps else heappop(heap)[1]
        while placed[k]:
            k = heappop(heap)[1]
        placed[k] = True
        a = atoms[k]
        positions, key_slots, binds, checks = [], [], [], []
        fresh: dict[Term, int] = {}
        for p, t in enumerate(a.terms):
            if t in fresh:
                checks.append((p, fresh[t]))
            elif isinstance(t, Variable) and t not in slots:
                fresh[t] = p
                binds.append((p, slots.setdefault(t, len(slots))))
                for j in occurs[t]:
                    bound[j] += 1
                    heappush(heap, (-bound[j], j))
            else:
                positions.append(p)
                key_slots.append(slots.setdefault(t, len(slots)))
        key_of = itemgetter(*key_slots) if key_slots else None
        group = (a.relation, a.arity)
        steps.append((k, group, tuple(positions), key_of, tuple(binds), tuple(checks)))
    return tuple(steps), tuple(None if isinstance(t, Variable) else t for t in slots)


def matches(
    index: FactIndex,
    atoms: tuple[Atom, ...],
    meter: Meter,
    delta: tuple[tuple[tuple, tuple], Sequence[Fact], AbstractSet[Fact]] | None = None,
) -> Iterator[tuple[Fact, ...]]:
    """The join engine: every tuple of facts from ``index``, one per atom
    and in atom order, onto which one valuation maps the atoms.

    Each step of the cached plan probes the index on its bound positions
    and binds the free ones.  ``meter`` is charged once per candidate
    fact a probe returns, so facts the index never hands out cost
    nothing.  With ``delta = (plan, rows, skip)``, where ``plan`` is
    ``_plan(atoms, i)``, resolved once by the caller, atom ``i`` matches
    only ``rows`` (the delta facts of its relation and arity), atoms
    before it only facts outside the delta ``skip``, and atoms after it
    any fact: one semi-naive term.  Filtering ``rows`` on atom ``i``'s
    constants costs what a probe of an index over the delta would.
    """
    (steps, init), rows, skip = delta or (_plan(atoms, None), (), frozenset())
    first = None if delta is None else steps[0][0]
    vals = list(init)
    matched: list[Fact | None] = [None] * len(atoms)
    resolved = []
    for k, group, positions, key_of, binds, checks in steps:
        if k != first:
            rows = index.table(group, positions) if positions else index.groups.get(group, ())
        elif positions:  # atom i leads with only constants bound: filter its rows
            want, key, key_of = key_of(vals), itemgetter(*positions), None
            rows = [f for f in rows if key(f.args) == want]
        if not (rows or resolved):  # the leading atom has no candidate: no match, no charge
            return iter(())
        resolved.append((k, rows, key_of, binds, checks, first is not None and k < first))
    last = len(resolved) - 1

    def enter(i: int) -> Iterator[Fact]:
        k, rows, key_of, binds, checks, old = resolved[i]
        candidates = rows if key_of is None else rows.get(key_of(vals), ())
        if candidates:
            meter.charge(len(candidates))
        return iter(candidates)

    def walk() -> Iterator[tuple[Fact, ...]]:
        # depth first, one candidate iterator per entered step: the top one
        # advances until a fact extends the match, then the next step is entered
        stack = [enter(0)]
        while stack:
            i = len(stack) - 1
            k, _, _, binds, checks, old = resolved[i]
            for f in stack[i]:
                if old and f in skip:
                    continue
                args = f.args
                if checks and any(args[p] != args[q] for p, q in checks):
                    continue
                for p, s in binds:
                    vals[s] = args[p]
                matched[k] = f
                if i == last:
                    yield tuple(matched)  # type: ignore[arg-type]
                else:
                    stack.append(enter(i + 1))
                    break
            else:
                stack.pop()

    return walk()


def valuations(facts: Iterable[Fact], query: ConjunctiveQuery) -> Iterator[dict[Variable, str]]:
    """All total valuations of the query's variables that map every atom
    onto a fact of the given set, charged to the meter current at the call."""
    sources = variable_positions(query.atoms)
    found = matches(FactIndex(facts), query.atoms, current_meter())
    return ({v: m[k].args[p] for v, (k, p) in sources.items()} for m in found)


def eval_bcq(facts: Iterable[Fact], query: ConjunctiveQuery) -> bool:
    """True iff some valuation maps every atom of the query into ``facts``.
    The probes are charged to the current meter."""
    return next(matches(FactIndex(facts), query.atoms, current_meter()), None) is not None


def witnesses(
    facts: Iterable[Fact],
    query: ConjunctiveQuery,
    schemas: frozenset[RelationSchema] | None = None,
) -> frozenset[Witness]:
    """Exactly the minimal support sets of the query within ``facts``.

    Each witness is the set of facts one match of the join engine maps
    the atoms onto; enumeration keeps the subset-minimal ones, so it does
    not walk the subset lattice.  The join candidates are charged to the
    current meter, once per ``with Meter`` block for equal facts and query
    (:meth:`~causelab.budget.Meter.once`).
    """
    check_query_schema(query, schemas)
    facts, meter = frozenset(facts), current_meter()
    return meter.once(
        ("witnesses", facts, query),
        lambda: minimize_family(matches(FactIndex(facts), query.atoms, meter)),
    )


def satisfies_dc(facts: Iterable[Fact], constraint: DenialConstraint) -> bool:
    """True iff the constraint's violation view, the query it forbids, is
    false on ``facts``."""
    return not eval_bcq(facts, constraint)
