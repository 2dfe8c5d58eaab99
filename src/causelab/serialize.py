"""Canonical JSON forms for instances, causes, repairs, diagnoses and
solution families.

Every emitted collection is sorted canonically (relation name, then
constants, lexicographically), so identical inputs always serialize to
byte-identical output.  Facts appear as flat lists ``[relation, arg...]``
and responsibilities as exact rational strings such as ``"1/2"``.
"""
from __future__ import annotations

import json
from typing import Any, Iterable

from .causality import CauseSet, responsibility_of
from .diagnosis import Diagnosis
from .errors import ParseError
from .model import Fact, Instance, RelationSchema
from .repairs import Repair

__all__ = [
    "fact_key",
    "sort_facts",
    "family_key",
    "sort_families",
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


def fact_key(f: Fact) -> tuple[str, tuple[str, ...]]:
    return (f.relation, f.args)


def sort_facts(facts: Iterable[Fact]) -> list[Fact]:
    return sorted(facts, key=fact_key)


def _keys(facts: list[Fact]) -> list[tuple[str, tuple[str, ...]]]:
    return [fact_key(f) for f in facts]


def family_key(facts: Iterable[Fact]) -> list[tuple[str, tuple[str, ...]]]:
    """A fact set's place in canonical family order: the keys of its
    sorted facts, compared lexicographically."""
    return _keys(sort_facts(facts))


def sort_families(families: Iterable[Iterable[Fact]]) -> list[list[Fact]]:
    # each set is sorted once and ordered by the keys of its sorted facts
    return sorted(map(sort_facts, families), key=_keys)


def fact_to_list(f: Fact) -> list[str]:
    return [f.relation, *f.args]


def fact_from_list(data: Any) -> Fact:
    if not isinstance(data, list) or not data or not all(isinstance(x, str) for x in data):
        raise ParseError(f"a fact must be a nonempty list of strings, got {data!r}")
    return Fact(data[0], tuple(data[1:]))


def family_to_list(families: Iterable[Iterable[Fact]]) -> list[list[list[str]]]:
    return [[fact_to_list(f) for f in fs] for fs in sort_families(families)]


def instance_to_dict(instance: Instance) -> dict[str, Any]:
    return {
        "schemas": [
            {"name": s.name, "arity": s.arity} for s in sorted(instance.schemas)
        ],
        "endogenous": [fact_to_list(f) for f in sort_facts(instance.endogenous)],
        "exogenous": [fact_to_list(f) for f in sort_facts(instance.exogenous)],
    }


def instance_from_dict(data: Any) -> Instance:
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
    endo = frozenset(fact_from_list(f) for f in fields["endogenous"])
    exo = frozenset(fact_from_list(f) for f in fields["exogenous"])
    return Instance(frozenset(schemas), endo, exo)


def cause_set_to_list(cause_set: CauseSet) -> list[dict[str, Any]]:
    return [
        {
            "tuple": fact_to_list(t),
            "responsibility": str(responsibility_of(cause_set[t])),
            "min_contingencies": family_to_list(cause_set[t]),
        }
        for t in sort_facts(cause_set)
    ]


def repair_to_dict(repair: Repair, kind: str) -> dict[str, Any]:
    """A repair as its kind ("S" or "C") and the facts it removes."""
    return {"kind": kind, "removed": [fact_to_list(f) for f in sort_facts(repair)]}


def diagnosis_to_dict(diagnosis: Diagnosis) -> dict[str, Any]:
    return {"abnormal": [fact_to_list(f) for f in sort_facts(diagnosis)]}


def dumps(payload: Any) -> str:
    """The canonical JSON text for a payload: two-space indent, stable key
    order as constructed, trailing newline."""
    return json.dumps(payload, indent=2) + "\n"
