from __future__ import annotations

import json

import pytest

from causelab import Instance, ParseError, actual_causes, fact, s_repairs
from causelab.abduction import abductive_solutions, problem_for_instance
from causelab.serialize import (
    RankedFamily,
    cause_set_to_list,
    diagnosis_to_dict,
    dumps,
    fact_from_list,
    fact_to_list,
    family_to_list,
    instance_from_dict,
    instance_to_dict,
    repair_to_dict,
)


def test_fact_round_trip():
    f = fact("R", "a2", "a1")
    assert fact_from_list(fact_to_list(f)) == f
    assert fact_to_list(fact("ans")) == ["ans"]


def test_fact_from_list_validates():
    with pytest.raises(ParseError):
        fact_from_list([])
    with pytest.raises(ParseError):
        fact_from_list(["R", 3])


def test_instance_json_is_bit_exact(d0):
    expected = (
        '{"schemas":[{"name":"R","arity":2},{"name":"S","arity":1}],'
        '"endogenous":[["R","a1","a4"],["R","a2","a1"],["R","a3","a3"],'
        '["S","a1"],["S","a2"],["S","a3"]],"exogenous":[]}'
    )
    got = json.dumps(instance_to_dict(d0), separators=(",", ":"))
    assert got == expected


def test_instance_round_trip(d0):
    shifted = Instance(
        d0.schemas, d0.endogenous - {fact("S", "a3")}, frozenset({fact("S", "a3")})
    )
    assert instance_from_dict(instance_to_dict(shifted)) == shifted


def test_instance_from_dict_validates():
    with pytest.raises(ParseError):
        instance_from_dict([1, 2])
    with pytest.raises(ParseError):
        instance_from_dict({"endogenous": []})
    with pytest.raises(ParseError):
        instance_from_dict({"schemas": [{"name": "R"}]})


@pytest.mark.parametrize("arity", [None, "2", 2.5, True])
def test_schema_arity_must_be_an_integer(arity):
    with pytest.raises(ParseError, match="integer 'arity'"):
        instance_from_dict({"schemas": [{"name": "R", "arity": arity}]})


@pytest.mark.parametrize("name", [7, None])
def test_schema_name_must_be_a_string(name):
    with pytest.raises(ParseError, match="string 'name'"):
        instance_from_dict({"schemas": [{"name": name, "arity": 1}]})


@pytest.mark.parametrize("field", ["schemas", "endogenous", "exogenous"])
@pytest.mark.parametrize("value", [5, None, "R", {"R": 1}])
def test_instance_fields_must_be_lists(field, value):
    data = {"schemas": [{"name": "R", "arity": 1}], "endogenous": [], "exogenous": []}
    data[field] = value
    with pytest.raises(ParseError, match=field):
        instance_from_dict(data)


def test_sorted_by_sorted_members_orders_quoted_constants_canonically():
    # a key on the facts' repr would put "it's" (repr starts with ") first
    sets = [{fact("R", "it's")}, {fact("R", "a")}]
    assert sorted(sets, key=sorted) == [{fact("R", "a")}, {fact("R", "it's")}]
    assert list(family_to_list(sets)) == [[fact("R", "a")], [fact("R", "it's")]]


def test_cause_set_serialization_shape(d0, q0):
    entries = json.loads(dumps(cause_set_to_list(actual_causes(d0, q0))))
    assert entries[0] == {
        "tuple": ["R", "a2", "a1"],
        "responsibility": "1/2",
        "min_contingencies": [[["R", "a3", "a3"]], [["S", "a3"]]],
    }


def test_repair_serialization_shape(d0, k0):
    for repair in s_repairs(d0, [k0]):
        assert set(repair_to_dict(repair, "S")) == {"kind", "removed"}


def test_families_are_canonically_ordered(d0, prog0):
    listed = json.loads(dumps(family_to_list(abductive_solutions(problem_for_instance(prog0, d0)))))
    assert listed == [
        [["R", "a2", "a1"], ["S", "a1"]],
        [["R", "a3", "a3"], ["S", "a3"]],
    ]


def test_dumps_is_deterministic(d0):
    assert dumps(instance_to_dict(d0)) == dumps(instance_to_dict(d0))
    assert dumps(instance_to_dict(d0)).endswith("\n")


def test_a_family_iterates_over_its_fact_lists():
    a, b, c = fact("R", "a"), fact("R", "b"), fact("S", "a")
    family = family_to_list([{c}, {b, a}, {a, c}])
    assert isinstance(family, RankedFamily)
    assert list(family) == [[a, b], [a, c], [c]]
    assert all(type(s) is list for s in family)
    assert list(family_to_list([])) == [] and list(family_to_list([set()])) == [[]]
    # no list protocol: a comparison reads the family's list of sets
    assert not hasattr(family, "__len__") and not hasattr(family, "__getitem__")
    assert family != list(family)


def test_a_listed_repair_is_kept_in_its_order():
    a, b = fact("R", "a"), fact("R", "b")
    assert repair_to_dict(frozenset({b, a}), "S") == {"kind": "S", "removed": [a, b]}
    assert repair_to_dict([a, b], "C")["removed"] == [a, b]
    assert diagnosis_to_dict({b, a}) == {"abnormal": [a, b]}
