"""Exception types shared across the package."""
from __future__ import annotations


class CauselabError(Exception):
    """Base class for every error raised by this package."""


class SchemaError(CauselabError):
    """A relation is undeclared, or used with the wrong arity."""


class DomainError(CauselabError):
    """An argument lies outside the operation's domain, e.g. a tuple that
    is not endogenous where only endogenous tuples are admissible, or a
    pool over a brute-force oracle's cap."""


class BudgetError(CauselabError):
    """A request's work exceeded its meter's budget.

    Raised by :meth:`causelab.budget.Meter.charge` alone, instead of
    silently truncating results.
    """


class ParseError(CauselabError):
    """Malformed textual input."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None) -> None:
        self.line = line
        self.column = column
        if line is not None:
            where = f"line {line}" + (f", column {column}" if column is not None else "")
            message = f"{where}: {message}"
        super().__init__(message)
