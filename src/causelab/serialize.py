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
canonical order and keep its facts as :class:`Fact` objects.  A family is
ordered by ranks: the union of its facts is sorted once, and each set is
keyed by the tuple of its members' sorted ranks.  That is the order of
``sorted(family, key=sorted)``: each set's sorted facts, compared
lexicographically, so a set comes before its extensions and the empty
set first.  :func:`dumps` prints a payload as
``json.dumps(plain, indent=2)`` would, ``plain`` being the payload with
each fact replaced by its flat list, byte for byte; it builds each
fact's text once per indent depth, since facts recur across thousands
of sets.

:func:`instance_from_dict` loads an instance with no per-fact Python
check: each part's rows are checked in whole-list passes that run in C
and each fact is built once.  Only a failed pass walks the rows one by
one, with :func:`fact_from_list`, to raise the first bad row's error.
"""
from __future__ import annotations

from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Any, Callable, Iterable

from .causality import CauseSet, responsibility_of
from .diagnosis import Diagnosis
from .errors import ParseError
from .model import Fact, Instance, RelationSchema
from .repairs import Repair

__all__ = [
    "fact_to_list",
    "fact_from_list",
    "family_to_list",
    "instance_to_dict",
    "instance_from_dict",
    "cause_set_to_list",
    "repair_to_dict",
    "diagnosis_to_dict",
    "dumps",
]


def _family_sorter(order: list[Fact]) -> Callable[[Iterable[Iterable[Fact]]], list[list[Fact]]]:
    """Sorts families drawn from ``order``, a list of facts in canonical
    order, into canonical family order, each set a sorted list."""
    rank = dict(zip(order, range(len(order)))).__getitem__
    at = order.__getitem__

    def sort(family: Iterable[Iterable[Fact]]) -> list[list[Fact]]:
        keys = sorted([tuple(sorted(map(rank, s))) for s in family])
        return [list(map(at, key)) for key in keys]

    return sort


def fact_to_list(f: Fact) -> list[str]:
    return [f.relation, *f.args]


def fact_from_list(data: Any) -> Fact:
    """One row ``[relation, arg...]`` as a fact, every check made on the
    row alone: the reference for :func:`instance_from_dict`'s bulk checks."""
    if not isinstance(data, list) or not data or not all(isinstance(x, str) for x in data):
        raise ParseError(f"a fact must be a nonempty list of strings, got {data!r}")
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


def family_to_list(families: Iterable[Iterable[Fact]]) -> list[list[Fact]]:
    """A family as a payload: its sets in canonical order."""
    sets = list(map(tuple, families))
    return _family_sorter(sorted(set().union(*sets)))(sets)


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
            raise ParseError(f"instance field {key!r} must be a list, got {value!r}")
    schemas = set()
    for s in fields["schemas"]:
        # JSON true is a Python bool, which isinstance(..., int) accepts as 1
        if (
            not isinstance(s, dict)
            or not isinstance(s.get("name"), str)
            or type(s.get("arity")) is not int
        ):
            raise ParseError(f"a schema needs a string 'name' and an integer 'arity', got {s!r}")
        schemas.add(RelationSchema(s["name"], s["arity"]))
    endo = _facts_from_rows(fields["endogenous"])
    exo = _facts_from_rows(fields["exogenous"])
    return Instance(frozenset(schemas), endo, exo)


def cause_set_to_list(cause_set: CauseSet) -> list[dict[str, Any]]:
    """The causes in canonical order, each with its responsibility and its
    minimal contingency sets in canonical family order."""
    causes = sorted(cause_set)
    members = set(causes).union(*chain.from_iterable(cause_set.values()))
    family_order = _family_sorter(sorted(members))
    return [
        {
            "tuple": t,
            "responsibility": str(responsibility_of(cause_set[t])),
            "min_contingencies": family_order(cause_set[t]),
        }
        for t in causes
    ]


def repair_to_dict(repair: Repair, kind: str) -> dict[str, Any]:
    """A repair as its kind ("S" or "C") and the facts it removes."""
    return {"kind": kind, "removed": sorted(repair)}


def diagnosis_to_dict(diagnosis: Diagnosis) -> dict[str, Any]:
    return {"abnormal": sorted(diagnosis)}


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
    lists, strings, bools, ints, None and facts: two-space indent, key
    order as constructed, ASCII only, trailing newline.  Any other type
    raises :class:`TypeError`."""
    chunks: list[str] = []
    emit = chunks.append
    fact_texts: dict[int, _FactTexts] = {}

    def texts_at(depth: int) -> _FactTexts:
        texts = fact_texts.get(depth)
        if texts is None:
            texts = fact_texts[depth] = _FactTexts(depth)
        return texts

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
