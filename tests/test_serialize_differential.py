"""Differential tests of the canonical writer and the rank-based family
order against their definitions: ``dumps`` against
``json.dumps(plain, indent=2) + "\\n"`` on seeded random payloads, plain
families and record families (each set printed as a dict, as repairs and
diagnoses are) included, and ``family_to_list`` against
``sorted(family, key=sorted)`` (each set's sorted facts, compared
lexicographically)."""
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


#: The characters of each side :func:`first_difference` shows.
SHOWN = 40


def first_difference(got: Any, want: Any) -> str | None:
    """None when ``got == want``; else the offset where their texts (for
    anything but two strings, the ``repr`` of their plain forms) first
    differ, with a few dozen characters of each side.  Tests assert that
    this is None, so a failure prints one short line instead of a diff of
    megabyte texts or thousand-set lists, and every comparison stays exact."""
    if got == want:
        return None
    if not (isinstance(got, str) and isinstance(want, str)):
        got, want = repr(plain(got)), repr(plain(want))
    # the longest common prefix, by bisection over slice comparisons in C
    lo, hi = 0, min(len(got), len(want))
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if got[:mid] == want[:mid] else (lo, mid - 1)
    return f"offset {lo} of {len(got)} and {len(want)}: {got[lo:lo + SHOWN]!r} vs {want[lo:lo + SHOWN]!r}"


def test_first_difference_names_the_first_differing_offset():
    assert first_difference("abc" * 10**6, "abc" * 10**6) is None
    assert first_difference("ab" + "x" * 99, "ab" + "y" * 99).startswith("offset 2 of 101 and 101: 'xxx")
    assert first_difference([(1, 2)], [(1, 3)]) == "offset 5 of 8 and 8: '2)]' vs '3)]'"
    assert first_difference(list(family_to_list([{fact("R", "a")}])), [[fact("R", "a")]]) is None


def random_text(rng: random.Random) -> str:
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randrange(5)))


def random_fact(rng: random.Random) -> Fact:
    name = rng.choice(["R", "S", "T", "ans", 'it"s'])
    return Fact(name, tuple(random_text(rng) for _ in range(rng.randrange(4))))


def random_family(rng: random.Random, pool: list[Fact]) -> RankedFamily:
    """Sets drawn from a small pool, so sets share facts and prefixes; the
    empty set included at times."""
    return family_to_list(
        rng.sample(pool, rng.randrange(len(pool) + 1)) for _ in range(rng.randrange(5))
    )


def random_records(rng: random.Random) -> RankedFamily:
    """A family printed as records: a key for the set and leading string
    fields, the key never among them."""
    key = rng.choice(["removed", "abnormal", random_text(rng)])
    fields = {random_text(rng): random_text(rng) for _ in range(rng.randrange(3))}
    fields.pop(key, None)
    family = random_family(rng, [random_fact(rng) for _ in range(rng.randrange(5))])
    return family_to_list(map(frozenset, family), key, **fields)


def random_payload(rng: random.Random, depth: int = 0) -> Any:
    kinds = ["str", "int", "bool", "none", "fact"]
    if depth < 4:
        kinds += ["list", "dict", "facts", "family", "records"]
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
    if kind == "records":
        return random_records(rng)
    if kind == "list":
        return [random_payload(rng, depth + 1) for _ in range(rng.randrange(4))]
    return {random_text(rng): random_payload(rng, depth + 1) for _ in range(rng.randrange(4))}


@pytest.mark.parametrize("seed", range(40))
def test_dumps_matches_json_dumps(seed):
    rng = random.Random(seed)
    for _ in range(25):
        payload = random_payload(rng)
        assert first_difference(dumps(payload), reference(payload)) is None


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
    assert first_difference(dumps(payload), reference(payload)) is None


A, B, C = fact("R", "a", "b"), fact("R", "b", "c"), fact("S", "\xe9t\xe9", "\U0001d11e")
REPAIRS = [{A}, {B, C}]


@pytest.mark.parametrize(
    "payload",
    [
        {"semantics": "S", "repairs": family_to_list(REPAIRS, "removed", kind="S")},
        {"semantics": "C", "repairs": family_to_list([{A}], "removed", kind="C")},
        {"semantics": "S", "repairs": family_to_list([], "removed", kind="S")},
        {"semantics": "S", "repairs": family_to_list([set()], "removed", kind="S")},
        {"vacuous": True, "diagnoses": family_to_list([set()], "abnormal")},
        {"vacuous": False, "diagnoses": family_to_list([], "abnormal")},
        {"diagnoses": family_to_list(REPAIRS, "abnormal")},
        family_to_list(REPAIRS, "removed", kind="S", note="two fields"),
        [[[family_to_list(REPAIRS, "removed", kind="C")]]],
        {"a": {"b": [family_to_list(REPAIRS, "abnormal"), family_to_list(REPAIRS)]}},
        {"s": family_to_list(REPAIRS, "k\xe9y", **{"\u2028": "\U0001d11e", "q": '"\\'})},
    ],
    ids=["s-repairs", "c-repairs", "no-repairs", "empty-repair", "vacuous-diagnosis",
         "no-diagnosis", "diagnoses", "top-level-records", "nested-records",
         "records-beside-a-family", "non-ascii-fields"],
)
def test_dumps_matches_json_dumps_on_record_families(payload):
    assert first_difference(dumps(payload), reference(payload)) is None


def test_a_record_family_reads_as_its_records():
    records = family_to_list(REPAIRS, "removed", kind="S")
    expected = [{"kind": "S", "removed": [A]}, {"kind": "S", "removed": [B, C]}]
    assert list(records) == expected
    assert list(family_to_list([set()], "abnormal")) == [{"abnormal": []}]


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
        family_to_list([{fact("R", "a")}], "removed", kind=1),
    ],
    # a plain tuple equals the fact it is shaped like, but is not a fact
    ids=["float", "tuple", "fact-shaped-tuple", "set", "fraction", "int-key", "bytes", "object",
         "int-record-field"],
)
def test_dumps_rejects_other_types(payload):
    with pytest.raises(TypeError):
        dumps(payload)


@pytest.mark.parametrize("seed", range(40))
def test_family_to_list_matches_sorted_by_sorted_members(seed):
    rng = random.Random(seed)
    pool = [random_fact(rng) for _ in range(rng.randrange(1, 7))]
    family = [frozenset(rng.sample(pool, rng.randrange(len(pool) + 1))) for _ in range(8)]
    # a set's proper prefixes in canonical order, and the empty set
    chosen = sorted(rng.choice(family))
    family += [frozenset(chosen[:k]) for k in range(len(chosen))]
    expected = [sorted(s) for s in sorted(family, key=sorted)]
    assert first_difference(list(family_to_list(family)), expected) is None
    assert first_difference(list(family_to_list(iter(family))), expected) is None
    distinct = set(family)
    expected = [sorted(s) for s in sorted(distinct, key=sorted)]
    assert first_difference(list(family_to_list(distinct)), expected) is None


def test_sort_families_puts_prefixes_first():
    a, b, c = fact("R", "a"), fact("R", "b"), fact("S", "a")
    family = [{a, b, c}, {b}, {a, c}, set(), {a, b}, {a}]
    assert list(family_to_list(family)) == [[], [a], [a, b], [a, b, c], [a, c], [b]]
    assert list(family_to_list([])) == []
    assert list(family_to_list([set()])) == [[]]


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
def test_cause_payload_matches_sorted_by_sorted_members(seed):
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
    assert first_difference(json.loads(dumps(payload)), _old_cause_set_to_list(causes)) is None
    assert first_difference(dumps(payload), reference(payload)) is None
