"""Text formats for queries, denial constraints and Datalog programs.

Queries:      q() :- R(X, Y), S(Y).
Constraints:  :- R(X, Y), S(Y).
Programs:     one rule per statement, e.g.  T(X, Y) :- E(X, Z), T(Z, Y).

Variables start with an uppercase letter; constants start with a
lowercase letter or digit, or are double-quoted.  A bare underscore is
an anonymous variable, fresh at each occurrence.  `%` starts a comment
running to the end of the line.

One regular expression splits the text into tokens and a recursive
descent parser reads them.  A character no token admits becomes a
``bad`` token, so it is reported only when the parser reaches it; line
and column are computed from a token's offset when an error is raised.
"""
from __future__ import annotations

import re
from typing import Callable, TypeVar

from .errors import ParseError
from .model import (
    BARE_NAME,
    Atom,
    ConjunctiveQuery,
    Fact,
    Term,
    Variable,
    is_variable_name,
)
from .datalog import DatalogProgram, DatalogRule

__all__ = [
    "parse_query",
    "parse_denial_constraint",
    "parse_denial_constraints",
    "parse_program",
    "parse_ground_atom",
]

_TOKEN = re.compile(
    rf"""(?P<space>(?:[ \t\r\n]|%[^\n]*)+)
    |(?P<name>{BARE_NAME.pattern})
    |(?P<quoted>"(?:[^"\\]|\\.)*")
    |(?P<open_escape>"(?:[^"\\]|\\.)*\\\Z)
    |(?P<open>".*)
    |(?P<punct>:-|[(),.])
    |(?P<bad>.)
    |(?P<end>\Z)""",
    re.VERBOSE | re.DOTALL,
)
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
# An unterminated quote runs to the end of the text, where it is reported.
_UNTERMINATED = {
    "open": "unterminated quoted constant",
    "open_escape": "unterminated escape in quoted constant",
}

_T = TypeVar("_T")


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        # the last token is the empty ``end`` match
        self.tokens = [m for m in _TOKEN.finditer(text) if m.lastgroup != "space"]
        self.i = 0
        self.fresh = 0

    def error(self, message: str, offset: int) -> ParseError:
        line = self.text.count("\n", 0, offset) + 1
        return ParseError(message, line=line, column=offset - self.text.rfind("\n", 0, offset))

    def consumed(self) -> int:
        """Offset just past the last token read."""
        return self.tokens[self.i - 1].end()

    def unexpected(self, wanted: str) -> ParseError:
        tok = self.tokens[self.i]
        found = tok.group()[:1] or "end of input"
        return self.error(f"expected {wanted}, found {found!r}", tok.start())

    def at_end(self) -> bool:
        return self.tokens[self.i].lastgroup == "end"

    def finish(self, what: str) -> None:
        if not self.at_end():
            raise self.error(f"unexpected input after the {what}", self.tokens[self.i].start())

    def take(self, literal: str) -> bool:
        if self.tokens[self.i].group() == literal:
            self.i += 1
            return True
        return False

    def expect(self, literal: str) -> None:
        if not self.take(literal):
            raise self.unexpected(repr(literal))

    def name(self) -> str:
        tok = self.tokens[self.i]
        if tok.lastgroup != "name":
            raise self.unexpected("a name")
        self.i += 1
        return tok.group()

    def term(self) -> Term:
        tok = self.tokens[self.i]
        if tok.lastgroup == "quoted":
            self.i += 1
            return _ESCAPE.sub(r"\1", tok.group()[1:-1])
        if tok.lastgroup in _UNTERMINATED:
            raise self.error(_UNTERMINATED[tok.lastgroup], tok.end())
        name = self.name()
        if name == "_":
            self.fresh += 1
            return Variable(f"_{self.fresh}")
        return Variable(name) if is_variable_name(name) else name

    def sequence(self, item: Callable[[], _T]) -> tuple[_T, ...]:
        items = [item()]
        while self.take(","):
            items.append(item())
        return tuple(items)

    def atom(self) -> Atom:
        relation = self.name()
        terms: tuple[Term, ...] = ()
        if self.take("(") and not self.take(")"):
            terms = self.sequence(self.term)
            self.expect(")")
        return Atom(relation, terms)

    def body(self) -> tuple[Atom, ...]:
        """``:- atom, ..., atom.``"""
        self.expect(":-")
        atoms = self.sequence(self.atom)
        self.expect(".")
        return atoms


def parse_query(text: str) -> ConjunctiveQuery:
    """Parse a boolean query of the form ``q() :- body.``; the head name is
    arbitrary but must carry no arguments."""
    p = _Parser(text)
    head = p.atom()
    if head.terms:
        raise p.error(f"a boolean query head must have no arguments, got {head}", p.consumed())
    atoms = p.body()
    p.finish("query")
    return ConjunctiveQuery(atoms)


def parse_denial_constraints(text: str) -> tuple[ConjunctiveQuery, ...]:
    """Parse a file of denial constraints, one ``:- body.`` per statement.
    Each constraint is the query whose pattern it forbids."""
    p = _Parser(text)
    out: list[ConjunctiveQuery] = []
    while not p.at_end():
        out.append(ConjunctiveQuery(p.body()))
    return tuple(out)


def parse_denial_constraint(text: str) -> ConjunctiveQuery:
    """Parse a single denial constraint of the form ``:- body.``: the
    one-statement case of :func:`parse_denial_constraints`."""
    p = _Parser(text)
    atoms = p.body()
    p.finish("constraint")
    return ConjunctiveQuery(atoms)


def parse_program(text: str) -> DatalogProgram:
    """Parse a Datalog program: statements of the form ``head :- body.``"""
    p = _Parser(text)
    rules: list[DatalogRule] = []
    while not p.at_end():
        head = p.atom()
        body = p.body()
        try:
            rules.append(DatalogRule(head, body))
        except ValueError as exc:
            raise p.error(str(exc), p.consumed()) from None
    try:
        return DatalogProgram(tuple(rules))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def parse_ground_atom(text: str) -> Fact:
    """Parse a ground atom such as ``R(a1, a4)`` into a fact."""
    p = _Parser(text)
    a = p.atom()
    p.finish("atom")
    if not a.is_ground():
        raise ParseError(f"expected a ground atom, got variables in {a}")
    return Fact(a.relation, a.terms)  # type: ignore[arg-type]
