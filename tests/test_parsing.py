from __future__ import annotations

import pytest

from causelab import (
    ParseError,
    fact,
    parse_denial_constraint,
    parse_denial_constraints,
    parse_ground_atom,
    parse_program,
    parse_query,
)
from causelab.model import Atom, Variable


def test_parse_query():
    q = parse_query("q() :- R(X, Y), S(Y).")
    assert q.atoms == (
        Atom("R", (Variable("X"), Variable("Y"))),
        Atom("S", (Variable("Y"),)),
    )


def test_parse_query_bare_head():
    assert parse_query("q :- S(X).").atoms == (Atom("S", (Variable("X"),)),)


def test_parse_query_with_constants_and_comments():
    q = parse_query("% a comment\nq() :- R(a1, Y). % trailing\n")
    assert q.atoms == (Atom("R", ("a1", Variable("Y"))),)


def test_parse_query_quoted_constant():
    q = parse_query('q() :- R("Upper case", Y).')
    assert q.atoms[0].terms[0] == "Upper case"


def test_parse_query_rejects_head_arguments():
    with pytest.raises(ParseError):
        parse_query("q(X) :- R(X, Y).")


def test_parse_query_rejects_trailing_junk():
    with pytest.raises(ParseError) as err:
        parse_query("q() :- R(X, Y). extra")
    assert err.value.line == 1


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_query("q() :-\n R(X,, Y).")
    assert err.value.line == 2


def test_parse_denial_constraint():
    k = parse_denial_constraint(":- R(X, Y), S(Y).")
    assert len(k.atoms) == 2


def test_parse_denial_constraint_rejects_head():
    with pytest.raises(ParseError):
        parse_denial_constraint("q() :- R(X, Y).")


def test_parse_multiple_constraints():
    ks = parse_denial_constraints(":- R(X, X).\n:- S(X), S(Y).\n")
    assert len(ks) == 2


def test_parse_program():
    program = parse_program(
        "T(X, Y) :- E(X, Y).\nT(X, Y) :- E(X, Z), T(Z, Y).\nans :- T(a, c).\n"
    )
    assert len(program.rules) == 3
    assert program.answer_atom() == fact("ans")
    assert str(program.rules[1]) == "T(X, Y) :- E(X, Z), T(Z, Y)."


def test_parse_program_rejects_facts():
    with pytest.raises(ParseError):
        parse_program("E(a, b).")


def test_parse_program_rejects_unsafe_rules():
    with pytest.raises(ParseError) as err:
        parse_program("T(X, W) :- E(X, Y).")
    assert "unsafe" in str(err.value)


def test_anonymous_variables_are_fresh():
    q = parse_query("q() :- R(_, _).")
    first, second = q.atoms[0].terms
    assert isinstance(first, Variable) and isinstance(second, Variable)
    assert first != second


def test_parse_ground_atom():
    assert parse_ground_atom("R(a1, a4)") == fact("R", "a1", "a4")
    assert parse_ground_atom("ans") == fact("ans")
    assert parse_ground_atom('S("Weird value")') == fact("S", "Weird value")


def test_parse_ground_atom_rejects_variables():
    with pytest.raises(ParseError):
        parse_ground_atom("R(X, a4)")


def test_parse_ground_atom_rejects_trailing():
    with pytest.raises(ParseError):
        parse_ground_atom("R(a, b) S(c)")


@pytest.mark.parametrize(
    "parse, text, line, column",
    [
        (parse_query, "q() :- R(X,, Y).", 1, 12),
        (parse_query, "q() :- R(X, Y)", 1, 15),
        (parse_query, "q(X) :- R(X, Y).", 1, 5),
        (parse_query, 'q() :- R("abc, Y).', 1, 19),
        (parse_query, 'q() :- R("abc\\', 1, 15),
        (parse_query, "q() :- R(X, Y). extra", 1, 17),
        (parse_program, "T(X, Y) :- E(X, Y).\n% two\nT(X, Y) :- E(X Z).\n", 3, 16),
        (parse_program, "T(X, Y) :- E(X, Y).\nT(X, W) :- E(X, Y).\n", 2, 20),
        (parse_query, "q() :- R(X Y), S(Y). @", 1, 12),
        (parse_denial_constraints, ":- R(X, X).\n:- S(X) S(Y).\n", 2, 9),
        (parse_denial_constraint, ":- R(X). :- S(X).", 1, 10),
        (parse_ground_atom, "R(a, b) S(c)", 1, 9),
        (parse_query, "q() : R(X).", 1, 5),
        (parse_query, "q() :- R(X, \u00e9).", 1, 13),
        (parse_ground_atom, "", 1, 1),
    ],
)
def test_malformed_input_error_position(parse, text, line, column):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.line, err.value.column) == (line, column)


def test_quoted_constant_escapes():
    q = parse_query(r'q() :- R("a\"b", "c\\d", "%e").')
    assert q.atoms[0].terms == ('a"b', "c\\d", "%e")


def test_query_round_trips_through_text(q0):
    assert parse_query(f"q() :- {q0}.") == q0
