"""The syntax values keep their hash: a ``Variable`` is the tuple of its
name and hashes in C, and an ``Atom``, a ``ConjunctiveQuery``, a
``DatalogRule`` and a ``DatalogProgram`` each compute theirs once, at
construction.  A stored hash holds only under the hash seed of the
process that computed it, so a copy or a pickle is rebuilt through the
constructor and hashes like a value built afresh where it lands; and the
stored hash changes neither ``==`` nor ``repr``."""
from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from causelab.datalog import DatalogProgram, DatalogRule
from causelab.model import Atom, ConjunctiveQuery, Variable, atom, fact

# each kind of value, as text that builds it in a fresh process
VALUES = {
    "variable": 'Variable("X")',
    "atom": 'atom("R", "X", "a")',
    "query": 'parse_query("q() :- R(X, Y), S(Y, a).")',
    "rule": 'parse_program("T(X, Y) :- E(X, Z), T(Z, Y).").rules[0]',
    "program": 'parse_program("T(X, Y) :- E(X, Y).\\nT(X, Y) :- E(X, Z), T(Z, Y).\\nans :- T(a, c).")',
}

PRELUDE = """
import pickle, sys
from causelab.model import Variable, atom
from causelab.parsing import parse_program, parse_query
values = {%s}
""" % ", ".join(f"{name!r}: {text}" for name, text in VALUES.items())

DUMP = PRELUDE + "sys.stdout.buffer.write(pickle.dumps(values))\n"

# for each value: its hash once loaded, and the hash of an equal value
# built in the loading process
LOAD = PRELUDE + """
loaded = pickle.loads(sys.stdin.buffer.read())
assert loaded == values
print({name: (hash(loaded[name]), hash(value)) for name, value in values.items()})
"""


def _run(script: str, hash_seed: str, stdin: bytes = b"") -> bytes:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], input=stdin, capture_output=True, env=env, check=True
    )
    return proc.stdout


def _build(name: str):
    """A fresh value of the kind ``name``, built by its text here."""
    namespace: dict = {}
    exec(PRELUDE, namespace)
    return namespace["values"][name]


def test_a_value_pickled_under_one_hash_seed_hashes_afresh_under_another():
    hashes = eval(_run(LOAD, "2", _run(DUMP, "1")))
    assert sorted(hashes) == sorted(VALUES)
    for name, (loaded, fresh) in hashes.items():
        assert loaded == fresh, name
    # the seeds hash names apart, so a hash carried over would differ
    seed_one = eval(_run(PRELUDE + "print({n: hash(v) for n, v in values.items()})", "1"))
    assert all(seed_one[name] != fresh for name, (_, fresh) in hashes.items())


COPIERS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
}


@pytest.mark.parametrize("name", sorted(set(VALUES) - {"variable"}))
@pytest.mark.parametrize("copier", sorted(COPIERS))
def test_a_copy_is_rebuilt_and_never_carries_the_stored_hash(name, copier):
    value = _build(name)
    fresh = hash(value)
    # a stale stored hash on the original must not reach the copy
    object.__setattr__(value, "_hash", fresh + 1)
    copied = COPIERS[copier](value)
    assert copied == value and copied is not value
    assert hash(copied) == fresh == hash(_build(name))


@pytest.mark.parametrize("copier", sorted(COPIERS))
def test_a_variable_copies_as_its_name(copier):
    copied = COPIERS[copier](Variable("X"))
    assert copied == Variable("X") and type(copied) is Variable
    assert hash(copied) == hash(Variable("X"))


def test_a_variable_is_not_its_name_and_an_atom_is_not_its_fact():
    assert Variable("X") != "X" and "X" != Variable("X")
    assert Variable("X") != Variable("Y")
    assert Atom("R", ("a", "b")) != fact("R", "a", "b")
    assert fact("R", "a", "b") != Atom("R", ("a", "b"))
    assert Atom("ans", ()) != fact("ans")
    assert ConjunctiveQuery((Atom("R", ("a",)),)) != Atom("R", ("a",))


def test_a_variable_equals_the_plain_tuple_of_its_name():
    # the one equality a tuple-backed variable adds: like a fact, it is
    # its plain tuple, so it equals, hashes and sorts as ``(name,)``
    assert Variable("X") == ("X",) and ("X",) == Variable("X")
    assert hash(Variable("X")) == hash(("X",))
    assert Variable("X") != ("Y",) and Variable("X") != ("X", "Y")
    assert sorted([("Y",), Variable("X")]) == [("X",), ("Y",)]


def test_equal_values_hash_alike_and_the_stored_hash_is_not_compared():
    for name in VALUES:
        first, second = _build(name), _build(name)
        assert first == second and hash(first) == hash(second)
    a = atom("R", "X")
    b = atom("R", "X")
    object.__setattr__(b, "_hash", hash(a) + 1)
    assert a == b


def test_each_repr_is_unchanged():
    x, y = Variable("X"), Variable("Y")
    assert repr(x) == "Variable(name='X')"
    r = Atom("R", (x, "a"))
    assert repr(r) == "Atom(relation='R', terms=(Variable(name='X'), 'a'))"
    assert repr(ConjunctiveQuery((r,))) == (
        "ConjunctiveQuery(atoms=(Atom(relation='R', terms=(Variable(name='X'), 'a')),))"
    )
    rule = DatalogRule(Atom("T", (x,)), (r,))
    assert repr(rule) == (
        "DatalogRule(head=Atom(relation='T', terms=(Variable(name='X'),)), "
        "body=(Atom(relation='R', terms=(Variable(name='X'), 'a')),))"
    )
    assert repr(DatalogProgram((rule,))) == f"DatalogProgram(rules=({rule!r},))"
    assert sorted([y, x]) == [x, y]
