"""Differential tests of the bulk instance loader against the per-row
loader it replaced: ``instance_from_dict`` checks each part's rows in
whole-list passes and builds each fact once, and must load every valid
document to the instance the per-row loader builds, with facts of exact
type :class:`Fact`, and fail on every invalid one with the per-row
loader's exception type and message.  Seeded documents have 0 to 2,000
facts over several relations and arities, duplicate rows, empty and
non-ASCII constants and both parts; each invalid one carries one or two
defects at random rows."""
from __future__ import annotations

import copy
import random
from typing import Any, Callable

import pytest

from causelab.errors import ParseError, SchemaError
from causelab.model import Fact, Instance, RelationSchema
from causelab.serialize import instance_from_dict

pytestmark = pytest.mark.differential

RELATIONS = {"R": 2, "S": 1, "T": 3, "Rel\xe9": 1, "W": 4}
CONSTANTS = ["a", "b", "c", "", "\xe9t\xe9", "€", "\U0001d11e", "x y", '"q"', "\\"]


def _shown(value: Any) -> str:
    """An offending value as an error message shows it: its repr, cut
    after 80 characters."""
    text = repr(value)
    return text if len(text) <= 80 else text[:80] + "..."


def _old_instance_from_dict(data: Any) -> Instance:
    """The per-row loader: each row checked on its own and built through
    ``Fact.__new__``, then each fact checked against the schemas in a
    Python loop, as ``Instance`` did before its checks became set passes.
    Its messages show an offending value as :func:`_shown` does."""
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
        if (
            not isinstance(s, dict)
            or not isinstance(s.get("name"), str)
            or type(s.get("arity")) is not int
        ):
            raise ParseError(f"a schema needs a string 'name' and an integer 'arity', got {_shown(s)}")
        schemas.add(RelationSchema(s["name"], s["arity"]))

    def fact_from_list(row: Any) -> Fact:
        if not isinstance(row, list) or not row or not all(isinstance(x, str) for x in row):
            raise ParseError(f"a fact must be a nonempty list of strings, got {_shown(row)}")
        return Fact(row[0], tuple(row[1:]))

    endo = frozenset(fact_from_list(f) for f in fields["endogenous"])
    exo = frozenset(fact_from_list(f) for f in fields["exogenous"])
    arities: dict[str, int] = {}
    for s in schemas:
        if s.name in arities:
            raise ValueError(f"relation {s.name!r} is declared twice")
        arities[s.name] = s.arity
    overlap = endo & exo
    if overlap:
        listing = ", ".join(str(f) for f in sorted(overlap))
        raise ValueError(f"facts cannot be both endogenous and exogenous: {listing}")
    for f in endo | exo:
        declared = arities.get(f.relation)
        if declared is None:
            raise SchemaError(f"fact {f} uses the undeclared relation {f.relation!r}")
        if declared != f.arity:
            raise SchemaError(
                f"fact {f} has arity {f.arity}, but {f.relation!r} is declared with arity {declared}"
            )
    return Instance(frozenset(schemas), endo, exo)


def random_document(rng: random.Random, size: int) -> dict[str, Any]:
    """A valid document of about ``size`` rows: distinct facts split
    between the parts, some rows repeated within their part, and at times
    a schema entry repeated verbatim."""
    relations = rng.sample(sorted(RELATIONS), rng.randint(1, len(RELATIONS)))
    facts = set()
    for _ in range(size):
        name = rng.choice(relations)
        facts.add((name, *(rng.choice(CONSTANTS) for _ in range(RELATIONS[name]))))
    endo: list[list[str]] = []
    exo: list[list[str]] = []
    share = rng.random()
    for f in sorted(facts):
        (endo if rng.random() < share else exo).append(list(f))
    for part in (endo, exo):
        for row in rng.sample(part, min(len(part), rng.randrange(4))):
            part.insert(rng.randrange(len(part) + 1), list(row))
        rng.shuffle(part)
    schemas = [{"name": n, "arity": RELATIONS[n]} for n in relations]
    if rng.random() < 0.3:
        schemas.append(dict(rng.choice(schemas)))
    return {"schemas": schemas, "endogenous": endo, "exogenous": exo}


def _rows(doc: dict[str, Any], rng: random.Random) -> tuple[list[Any], int]:
    """A random row that no defect has touched yet, as its part and index."""
    rows = [
        (part, i)
        for part in (doc["endogenous"], doc["exogenous"])
        for i, row in enumerate(part)
        if isinstance(row, list) and row and all(isinstance(x, str) for x in row) and row[0]
    ]
    return rng.choice(rows)


def _non_list_row(doc: dict[str, Any], rng: random.Random) -> None:
    part, i = _rows(doc, rng)
    part[i] = rng.choice(["R", 3, None, True, {"R": ["a"]}, 2.5])


def _empty_row(doc: dict[str, Any], rng: random.Random) -> None:
    part, i = _rows(doc, rng)
    part[i] = []


def _bad_element(doc: dict[str, Any], rng: random.Random) -> None:
    part, i = _rows(doc, rng)
    row = part[i] = list(part[i])
    row[rng.randrange(len(row))] = rng.choice([["a"], [], 7, 0, 1.5, None, True, False])


def _long_bad_row(doc: dict[str, Any], rng: random.Random) -> None:
    # a row whose repr runs past the shown prefix
    part, i = _rows(doc, rng)
    part[i] = [*part[i], "z" * rng.randrange(60, 400), rng.choice([7, None, ["a"]])]


def _empty_relation(doc: dict[str, Any], rng: random.Random) -> None:
    part, i = _rows(doc, rng)
    part[i] = ["", *part[i][1:]]


def _undeclared_relation(doc: dict[str, Any], rng: random.Random) -> None:
    part, i = _rows(doc, rng)
    part[i] = ["Undeclared", *part[i][1:]]


def _wrong_arity(doc: dict[str, Any], rng: random.Random) -> None:
    part, i = _rows(doc, rng)
    row = part[i]
    part[i] = row[:-1] if rng.random() < 0.5 else [*row, rng.choice(CONSTANTS)]


def _overlap(doc: dict[str, Any], rng: random.Random) -> None:
    part, i = _rows(doc, rng)
    other = doc["exogenous"] if part is doc["endogenous"] else doc["endogenous"]
    other.insert(rng.randrange(len(other) + 1), list(part[i]))


def _duplicate_schema(doc: dict[str, Any], rng: random.Random) -> None:
    s = rng.choice(doc["schemas"])
    doc["schemas"].insert(
        rng.randrange(len(doc["schemas"]) + 1), {"name": s["name"], "arity": s["arity"] + 1}
    )


DEFECTS: dict[str, Callable[[dict[str, Any], random.Random], None]] = {
    "non-list-row": _non_list_row,
    "empty-row": _empty_row,
    "bad-element": _bad_element,
    "long-bad-row": _long_bad_row,
    "empty-relation": _empty_relation,
    "undeclared-relation": _undeclared_relation,
    "wrong-arity": _wrong_arity,
    "overlap": _overlap,
    "duplicate-schema": _duplicate_schema,
}

# the defects a single row can carry, for documents with two bad rows
ROW_DEFECTS = ["non-list-row", "empty-row", "bad-element", "empty-relation"]


def outcome(load: Callable[[Any], Instance], doc: Any) -> Instance | tuple[type, str]:
    try:
        return load(doc)
    except (ParseError, SchemaError, ValueError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("seed", range(40))
def test_valid_documents_load_alike(seed):
    rng = random.Random(seed)
    size = rng.choice([0, 1, 5, 40, 300, 2000])
    doc = random_document(rng, size)
    expected = _old_instance_from_dict(copy.deepcopy(doc))
    loaded = instance_from_dict(doc)
    assert loaded == expected
    assert all(type(f) is Fact for f in loaded.facts)
    assert all(type(f.args) is tuple for f in loaded.facts)


@pytest.mark.parametrize("defect", sorted(DEFECTS))
@pytest.mark.parametrize("seed", range(12))
def test_a_defective_document_fails_alike(defect, seed):
    rng = random.Random(f"{defect}/{seed}")
    doc = random_document(rng, rng.choice([3, 30, 400]))
    DEFECTS[defect](doc, rng)
    expected = outcome(_old_instance_from_dict, copy.deepcopy(doc))
    assert not isinstance(expected, Instance)
    assert outcome(instance_from_dict, doc) == expected


@pytest.mark.parametrize("seed", range(30))
def test_the_first_bad_row_in_document_order_is_named(seed):
    rng = random.Random(seed)
    doc = random_document(rng, rng.choice([5, 60, 500]))
    for defect in rng.sample(ROW_DEFECTS, 2):
        DEFECTS[defect](doc, rng)
    expected = outcome(_old_instance_from_dict, copy.deepcopy(doc))
    assert outcome(instance_from_dict, doc) == expected
