"""Differential tests of the canonical writer and the rank-based family
order against their definitions: ``dumps`` against
``json.dumps(plain, indent=2) + "\\n"`` on seeded random payloads, and
``family_to_list`` against ``sorted(family, key=sorted)`` (each set's
sorted facts, compared lexicographically)."""
from __future__ import annotations

import json
import random
from fractions import Fraction
from typing import Any

import pytest

from causelab import actual_causes, fact
from causelab.model import ConjunctiveQuery, Fact, Instance, RelationSchema, atom
from causelab.serialize import (
    RankedFamily,
    cause_set_to_list,
    dumps,
    fact_to_list,
    family_to_list,
)

pytestmark = pytest.mark.differential

# quotes, backslashes, control characters, DEL, Latin-1, the BMP line
# separator, a character outside the BMP (a surrogate pair in JSON)
ALPHABET = ['a', 'b', 'Z', ' ', "'", '"', '\\', '/', '\n', '\t', '\r', '\x00', '\x1f',
            '\x7f', '\xe9', '\u20ac', '\u2028', '\U0001d11e']


def plain(value: Any) -> Any:
    """The payload with every fact replaced by its flat list and every
    ranked family by its list of sets."""
    if isinstance(value, Fact):
        return fact_to_list(value)
    if isinstance(value, (list, RankedFamily)):
        return [plain(v) for v in value]
    if isinstance(value, dict):
        return {k: plain(v) for k, v in value.items()}
    return value


def reference(value: Any) -> str:
    return json.dumps(plain(value), indent=2) + "\n"


def random_text(rng: random.Random) -> str:
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randrange(5)))


def random_fact(rng: random.Random) -> Fact:
    name = rng.choice(["R", "S", "T", "ans", 'it"s'])
    return Fact(name, tuple(random_text(rng) for _ in range(rng.randrange(4))))


def random_family(rng: random.Random, pool: list[Fact]) -> list[list[Fact]]:
    """Sets drawn from a small pool, so sets share facts and prefixes; the
    empty set included at times."""
    return family_to_list(
        rng.sample(pool, rng.randrange(len(pool) + 1)) for _ in range(rng.randrange(5))
    )


def random_payload(rng: random.Random, depth: int = 0) -> Any:
    kinds = ["str", "int", "bool", "none", "fact"]
    if depth < 4:
        kinds += ["list", "dict", "facts", "family"]
    kind = rng.choice(kinds)
    if kind == "str":
        return random_text(rng)
    if kind == "int":
        return rng.choice([0, 1, -1, 7, -42, 10**20, -(10**20)])
    if kind == "bool":
        return rng.choice([True, False])
    if kind == "none":
        return None
    if kind == "fact":
        return random_fact(rng)
    if kind == "facts":
        return [random_fact(rng) for _ in range(rng.randrange(4))]
    if kind == "family":
        return random_family(rng, [random_fact(rng) for _ in range(rng.randrange(5))])
    if kind == "list":
        return [random_payload(rng, depth + 1) for _ in range(rng.randrange(4))]
    return {random_text(rng): random_payload(rng, depth + 1) for _ in range(rng.randrange(4))}


@pytest.mark.parametrize("seed", range(40))
def test_dumps_matches_json_dumps(seed):
    rng = random.Random(seed)
    for _ in range(25):
        payload = random_payload(rng)
        assert dumps(payload) == reference(payload)


@pytest.mark.parametrize(
    "payload",
    [
        {},
        [],
        [[]],
        [{}],
        {"a": {}, "b": [], "c": [[], {}]},
        {"families": [], "with_empty": [[]], "empty_and_not": [[], [fact("R", "a")]]},
        [fact("ans"), fact("R", 'say "hi"'), fact("S", "back\\slash", "new\nline")],
        {"tuple": fact("R", "a"), "deep": [[[[fact("R", "a")]]]], "same": [fact("R", "a")]},
        [fact("R", "a"), "mixed", 1, None, True, [fact("R", "a")]],
        {"\xe9": "\U0001d11e", "ctl": "\x00\x1f\x7f", "sep": "\u2028"},
    ],
    ids=lambda p: json.dumps(plain(p), ensure_ascii=True)[:40],
)
def test_dumps_edge_cases(payload):
    assert dumps(payload) == reference(payload)


@pytest.mark.parametrize(
    "payload",
    [
        1.5,
        (1, 2),
        ("R", ("a",)),
        {fact("R", "a")},
        Fraction(1, 2),
        {1: "int key"},
        [b"bytes"],
        {"x": object()},
    ],
    # a plain tuple equals the fact it is shaped like, but is not a fact
    ids=["float", "tuple", "fact-shaped-tuple", "set", "fraction", "int-key", "bytes", "object"],
)
def test_dumps_rejects_other_types(payload):
    with pytest.raises(TypeError):
        dumps(payload)


@pytest.mark.parametrize("seed", range(40))
def test_sort_families_matches_family_key_order(seed):
    rng = random.Random(seed)
    pool = [random_fact(rng) for _ in range(rng.randrange(1, 7))]
    family = [frozenset(rng.sample(pool, rng.randrange(len(pool) + 1))) for _ in range(8)]
    # a set's proper prefixes in canonical order, and the empty set
    chosen = sorted(rng.choice(family))
    family += [frozenset(chosen[:k]) for k in range(len(chosen))]
    expected = [sorted(s) for s in sorted(family, key=sorted)]
    assert family_to_list(family) == expected
    assert family_to_list(iter(family)) == expected
    distinct = set(family)
    assert family_to_list(distinct) == [sorted(s) for s in sorted(distinct, key=sorted)]


def test_sort_families_puts_prefixes_first():
    a, b, c = fact("R", "a"), fact("R", "b"), fact("S", "a")
    family = [{a, b, c}, {b}, {a, c}, set(), {a, b}, {a}]
    assert family_to_list(family) == [[], [a], [a, b], [a, b, c], [a, c], [b]]
    assert family_to_list([]) == []
    assert family_to_list([set()]) == [[]]


def _old_cause_set_to_list(cause_set) -> list[dict[str, Any]]:
    """The cause payload as plain lists, by sorting each family with
    ``sorted(family, key=sorted)``."""
    return [
        {
            "tuple": fact_to_list(t),
            "responsibility": str(Fraction(1, 1 + min(map(len, cause_set[t])))),
            "min_contingencies": [
                list(map(fact_to_list, sorted(s)))
                for s in sorted(cause_set[t], key=sorted)
            ],
        }
        for t in sorted(cause_set)
    ]


@pytest.mark.parametrize("seed", range(30))
def test_cause_payload_matches_family_key_order(seed):
    rng = random.Random(seed)
    consts = [rng.choice(["a", "b", "c", "it's", "Upper", "d e"]) for _ in range(4)]
    facts = {fact("R", rng.choice(consts), rng.choice(consts)) for _ in range(10)}
    facts |= {fact("S", rng.choice(consts)) for _ in range(5)}
    exo = frozenset(f for f in facts if rng.random() < 0.2)
    instance = Instance(
        frozenset({RelationSchema("R", 2), RelationSchema("S", 1)}), frozenset(facts) - exo, exo
    )
    query = ConjunctiveQuery((atom("R", "X", "Y"), atom("S", "Y")))
    causes = actual_causes(instance, query)
    payload = cause_set_to_list(causes)
    assert json.loads(dumps(payload)) == _old_cause_set_to_list(causes)
    assert dumps(payload) == reference(payload)
