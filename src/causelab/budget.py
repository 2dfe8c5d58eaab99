"""Budgets for the exponential enumerations.

Every search that can blow up (witness enumeration, hitting sets, repair
and solution searches) counts its work against a cap and raises
:class:`~causelab.errors.BudgetError` when the cap is hit, never
truncating output silently.
"""
from __future__ import annotations

import os

from .errors import BudgetError

DEFAULT_BUDGET = 1_000_000
ENV_VAR = "CAUSELAB_BUDGET"


class Meter:
    """Tick counter that fails loudly once more than ``limit`` units are spent."""

    __slots__ = ("limit", "used", "label")

    def __init__(self, limit: int | None = None, label: str = "enumeration") -> None:
        self.limit = DEFAULT_BUDGET if limit is None else int(limit)
        self.used = 0
        self.label = label

    def charge(self, amount: int = 1) -> None:
        self.used += amount
        if self.used > self.limit:
            raise BudgetError(
                f"{self.label} exceeded its budget of {self.limit}", budget=self.limit
            )


def budget_from_env(explicit: int | None = None) -> int | None:
    """Resolve the enumeration cap for the CLI.

    An explicit value wins; otherwise the CAUSELAB_BUDGET environment
    variable applies; otherwise None selects the library default.  The
    variable must hold a positive integer.
    """
    if explicit is not None:
        return explicit
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{ENV_VAR} must be an integer, got {raw!r}") from None
    if value <= 0:
        raise ValueError(f"{ENV_VAR} must be positive, got {value}")
    return value
