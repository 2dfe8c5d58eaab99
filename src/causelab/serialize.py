"""Canonical JSON forms for instances, causes, repairs, diagnoses and
solution families, and the one writer that prints them.

Every emitted collection is sorted canonically, so identical inputs
always serialize to byte-identical output.  A :class:`Fact` is its
``(relation, args)`` tuple, so plain ``sorted`` orders facts canonically
(relation name, then constants, lexicographically).  Facts appear as
flat lists ``[relation, arg...]`` and responsibilities as exact rational
strings such as ``"1/2"``.

The payload builders (``cause_set_to_list``, ``family_to_list``,
``repair_to_dict``, ``diagnosis_to_dict``) put every collection in
canonical order and keep its facts as :class:`Fact` objects.  A family
is built in rank form, as a :class:`RankedFamily`: the union of its
facts is sorted once, each set becomes the sorted tuple of its members'
ranks, and the tuples are sorted once.  That is the order of
``sorted(family, key=sorted)``: each set's sorted facts, compared
lexicographically, so a set comes before its extensions and the empty
set first.  The value reads as a list of lists of facts.

A cause set is printed from the minimal hitting sets it is read off,
ranked and sorted once for all its causes: cause t's minimal
contingency sets are the sorted tuples that contain t, in that order,
each with t's rank skipped, and they need no sort of their own.  The
hitting sets form an antichain, and removing a shared element t from
two sorted tuples A < B cannot flip their order: a flip needs B less t
to be a prefix of A less t, which makes B a subset of A.  A plain
mapping (an oracle's dict, say) is printed the same way, from its sets
Gamma plus t.

:func:`dumps` prints a payload as ``json.dumps(plain, indent=2)`` would,
``plain`` being the payload with each fact replaced by its flat list
and each ranked family by its list of lists, byte for byte; it builds
each fact's text once per indent depth, since facts recur across
thousands of sets, and each set of a ranked family with one
``str.join``.

:func:`instance_from_dict` loads an instance with no per-fact Python
check: each part's rows are checked in whole-list passes that run in C
and each fact is built once.  Only a failed pass walks the rows one by
one, with :func:`fact_from_list`, to raise the first bad row's error.
"""
from __future__ import annotations

from collections.abc import Sequence
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Any, Iterable, Iterator

from .causality import CauseSet, HittingCauseSet, responsibility_of
from .errors import ParseError
from .model import Fact, Instance, RelationSchema

__all__ = [
    "fact_to_list",
    "fact_from_list",
    "RankedFamily",
    "family_to_list",
    "instance_to_dict",
    "instance_from_dict",
    "cause_set_to_list",
    "repair_to_dict",
    "diagnosis_to_dict",
    "dumps",
]


class RankedFamily(Sequence[list[Fact]]):
    """A family of fact sets in canonical order, held as rank tuples over
    ``order``, a list of facts in canonical order; it reads as the list
    of its sets, each a list of facts."""

    __slots__ = ("order", "ranks")

    def __init__(self, order: list[Fact], ranks: list[tuple[int, ...]]) -> None:
        self.order = order
        self.ranks = ranks

    def __iter__(self) -> Iterator[list[Fact]]:
        return map(list, map(map, repeat(self.order.__getitem__), self.ranks))

    def __len__(self) -> int:
        return len(self.ranks)

    def __getitem__(self, i):  # type: ignore[override]
        if isinstance(i, slice):
            return list(RankedFamily(self.order, self.ranks[i]))
        return list(map(self.order.__getitem__, self.ranks[i]))

    def __eq__(self, other: object) -> bool:
        return list(self) == other if isinstance(other, (list, RankedFamily)) else NotImplemented


def _ranked(order: list[Fact], family: Iterable[Iterable[Fact]]) -> RankedFamily:
    """A family drawn from ``order`` in rank form: each set the sorted
    tuple of its members' ranks, the tuples sorted once."""
    rank = dict(zip(order, range(len(order)))).__getitem__
    return RankedFamily(order, sorted([tuple(sorted(map(rank, s))) for s in family]))


#: The most characters of an offending value's repr a ParseError shows.
_SHOWN_CHARS = 80


def _shown(value: Any) -> str:
    """``repr(value)``, cut to its first :data:`_SHOWN_CHARS` characters, so
    one malformed value cannot make an error line of any length."""
    text = repr(value)
    return text if len(text) <= _SHOWN_CHARS else text[:_SHOWN_CHARS] + "..."


def fact_to_list(f: Fact) -> list[str]:
    return [f.relation, *f.args]


def fact_from_list(data: Any) -> Fact:
    """One row ``[relation, arg...]`` as a fact, every check made on the
    row alone: the reference for :func:`instance_from_dict`'s bulk checks."""
    if not isinstance(data, list) or not data or not all(isinstance(x, str) for x in data):
        raise ParseError(f"a fact must be a nonempty list of strings, got {_shown(data)}")
    return Fact(data[0], tuple(data[1:]))


_FIRST = itemgetter(0)
_REST = itemgetter(slice(1, None))


def _rows_valid(rows: list[Any]) -> bool:
    """Whether every row passes :func:`fact_from_list`, asked in
    whole-list passes that run in C."""
    if not (all(map(isinstance, rows, repeat(list))) and all(rows)):
        return False
    try:
        "".join(chain.from_iterable(rows))
    except TypeError:  # an element that is not a string
        return False
    return all(map(_FIRST, rows))


def _facts_from_rows(rows: list[Any]) -> frozenset[Fact]:
    if not _rows_valid(rows):
        # the first bad row raises its own error
        for row in rows:
            fact_from_list(row)
    # the rows passed Fact.__new__'s checks above, so each fact is built once
    pairs = zip(map(_FIRST, rows), map(tuple, map(_REST, rows)))
    return frozenset(map(tuple.__new__, repeat(Fact), pairs))


def family_to_list(families: Iterable[Iterable[Fact]]) -> RankedFamily:
    """A family as a payload: its sets in canonical order."""
    sets = list(map(tuple, families))
    return _ranked(sorted(set().union(*sets)), sets)


def instance_to_dict(instance: Instance) -> dict[str, Any]:
    return {
        "schemas": [
            {"name": s.name, "arity": s.arity} for s in sorted(instance.schemas)
        ],
        "endogenous": [fact_to_list(f) for f in sorted(instance.endogenous)],
        "exogenous": [fact_to_list(f) for f in sorted(instance.exogenous)],
    }


def instance_from_dict(data: Any) -> Instance:
    """The instance a parsed JSON document describes.

    The fields are checked first, then each schema in order.  The fact
    rows of each part, endogenous first, are checked in whole-list passes:
    every row a list (``isinstance`` mapped over the rows), none empty
    (``all``), every element a string (one ``str.join`` over all of them)
    and every relation name nonempty (``all`` over the first elements).
    Only when a pass fails are that part's rows walked with
    :func:`fact_from_list`, so the error raised is the first bad row's in
    document order, with the type and message the per-row check gives.
    Each fact is built once, with ``tuple.__new__``, and :class:`Instance`
    then checks the declared schemas, the parts' overlap and the set of
    the facts' (relation, arity) pairs.
    """
    if not isinstance(data, dict):
        raise ParseError("an instance must be a JSON object")
    if "schemas" not in data:
        raise ParseError("missing instance field: 'schemas'")
    fields = {key: data.get(key, []) for key in ("schemas", "endogenous", "exogenous")}
    for key, value in fields.items():
        if not isinstance(value, list):
            raise ParseError(f"instance field {key!r} must be a list, got {_shown(value)}")
    schemas = set()
    for s in fields["schemas"]:
        # JSON true is a Python bool, which isinstance(..., int) accepts as 1
        if (
            not isinstance(s, dict)
            or not isinstance(s.get("name"), str)
            or type(s.get("arity")) is not int
        ):
            raise ParseError(
                f"a schema needs a string 'name' and an integer 'arity', got {_shown(s)}"
            )
        schemas.add(RelationSchema(s["name"], s["arity"]))
    endo = _facts_from_rows(fields["endogenous"])
    exo = _facts_from_rows(fields["exogenous"])
    return Instance(frozenset(schemas), endo, exo)


def cause_set_to_list(cause_set: CauseSet) -> list[dict[str, Any]]:
    """The causes in canonical order, each with its responsibility and its
    minimal contingency sets in canonical family order, all read off the
    cause set's hitting sets ranked and sorted once; a mapping that does
    not keep them is read through its sets Gamma plus t."""
    if not isinstance(cause_set, HittingCauseSet):
        cause_set = HittingCauseSet({g | {t} for t, gammas in cause_set.items() for g in gammas})
    order = sorted(cause_set)
    contingencies: list[list[tuple[int, ...]]] = [[] for _ in order]
    for key in _ranked(order, cause_set.hitting_sets).ranks:
        for i, r in enumerate(key):
            contingencies[r].append(key[:i] + key[i + 1 :])
    return [
        {
            "tuple": t,
            "responsibility": str(responsibility_of(gammas)),
            "min_contingencies": RankedFamily(order, gammas),
        }
        for t, gammas in zip(order, contingencies)
    ]


def repair_to_dict(repair: Iterable[Fact], kind: str) -> dict[str, Any]:
    """A repair as its kind ("S" or "C") and the facts it removes; a list
    is taken to be in canonical order already, as the sets of a
    :class:`RankedFamily` are, and any other collection is sorted."""
    return {"kind": kind, "removed": repair if isinstance(repair, list) else sorted(repair)}


def diagnosis_to_dict(diagnosis: Iterable[Fact]) -> dict[str, Any]:
    """A diagnosis as its abnormal facts, ordered as :func:`repair_to_dict` orders them."""
    return {"abnormal": diagnosis if isinstance(diagnosis, list) else sorted(diagnosis)}


class _FactTexts(dict):
    """Each fact's text with its opening bracket at one indent depth,
    built on first use."""

    def __init__(self, depth: int) -> None:
        self.inner = "\n" + "  " * (depth + 1)
        self.close = "\n" + "  " * depth + "]"

    def __missing__(self, f: Fact) -> str:
        items = ("," + self.inner).join(map(encode_basestring_ascii, (f.relation, *f.args)))
        text = self[f] = "[" + self.inner + items + self.close
        return text


def dumps(payload: Any) -> str:
    """The canonical JSON text for a payload of dicts with string keys,
    lists, ranked families, strings, bools, ints, None and facts:
    two-space indent, key order as constructed, ASCII only, trailing
    newline.  Any other type raises :class:`TypeError`."""
    chunks: list[str] = []
    emit = chunks.append
    fact_texts: dict[int, _FactTexts] = {}
    # the texts of a rank order's facts at one depth, by the order's id:
    # the families of one cause set share their order
    rank_texts: dict[tuple[int, int], list[str]] = {}

    def texts_at(depth: int) -> _FactTexts:
        texts = fact_texts.get(depth)
        if texts is None:
            texts = fact_texts[depth] = _FactTexts(depth)
        return texts

    def write_family(family: RankedFamily, depth: int) -> None:
        key = (id(family.order), depth)
        if key not in rank_texts:
            rank_texts[key] = list(map(texts_at(depth + 2).__getitem__, family.order))
        at = rank_texts[key].__getitem__
        inner = "\n" + "  " * (depth + 1)
        open_set, sep, close = "[" + inner + "  ", "," + inner + "  ", "\n" + "  " * depth + "]"
        sets = [open_set + sep.join(map(at, k)) + inner + "]" if k else "[]" for k in family.ranks]
        emit("[" + inner + ("," + inner).join(sets) + close if sets else "[]")

    def write(value: Any, depth: int) -> None:
        # a container's items are written one level deeper, each followed
        # by a separator; the last separator becomes the closing line
        if isinstance(value, str):
            emit(encode_basestring_ascii(value))
        elif isinstance(value, list):
            if not value:
                emit("[]")
                return
            inner = "\n" + "  " * (depth + 1)
            close = "\n" + "  " * depth + "]"
            if all(map(isinstance, value, repeat(Fact))):
                texts = texts_at(depth + 1).__getitem__
                emit("[" + inner + ("," + inner).join(map(texts, value)) + close)
                return
            emit("[" + inner)
            for item in value:
                write(item, depth + 1)
                emit("," + inner)
            chunks[-1] = close
        elif isinstance(value, dict):
            if not value:
                emit("{}")
                return
            inner = "\n" + "  " * (depth + 1)
            emit("{" + inner)
            for key, item in value.items():
                if not isinstance(key, str):
                    raise TypeError(f"a JSON key must be a str, not a {type(key).__name__}")
                emit(encode_basestring_ascii(key) + ": ")
                write(item, depth + 1)
                emit("," + inner)
            chunks[-1] = "\n" + "  " * depth + "}"
        elif isinstance(value, Fact):
            emit(texts_at(depth)[value])
        elif isinstance(value, RankedFamily):
            write_family(value, depth)
        elif value is None:
            emit("null")
        elif value is True:
            emit("true")
        elif value is False:
            emit("false")
        elif isinstance(value, int):
            emit(int.__repr__(value))
        else:
            raise TypeError(f"a {type(value).__name__} has no canonical JSON form")

    write(payload, 0)
    emit("\n")
    return "".join(chunks)
