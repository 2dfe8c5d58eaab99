"""One work budget per request.

Every search that can blow up (the join, witness enumeration, the
Datalog fixpoint, minimal supports, hitting sets and their product
across components, contingency sets) charges its work to the current
:class:`Meter` and raises
:class:`~causelab.errors.BudgetError` when the meter's cap is hit, never
truncating output silently.

A meter is made current by a ``with`` block, the way
:func:`decimal.localcontext` scopes a precision::

    with Meter(10_000):
        causes = actual_causes(instance, query)  # join and hitting sets share 10^4 units

Every phase run inside the block charges that one meter, so the cap
bounds the whole computation.  Outside any block each phase gets a
fresh meter of its own at :data:`DEFAULT_BUDGET`: one join, one
hitting-set call (every component's search and their product), the
contingency-set charge, one fixpoint, one supports computation.  So
outside a block ``actual_causes`` is capped per phase, not as a whole;
the CLI runs each request inside one block.  The current meter lives in
a :class:`contextvars.ContextVar`, so it is per thread and per asyncio
task.

The block is also the request's scope for the families its phases
share.  The witnesses of one query over one fact set, the minimal
supports of one Datalog goal set and the component split of one
hitting-set family are each computed once per meter
(:meth:`Meter.once`): a later call with equal inputs in the same block
gets the stored family back and charges nothing, since it does no work.
So ``check``, which asks every per-tuple route about every tuple,
builds each family once.  Outside any block each call has a fresh meter, and
nothing is shared; no family outlives its block.
"""
from __future__ import annotations

import os
from contextvars import ContextVar, Token
from typing import Any, Callable, Hashable, TypeVar

from .errors import BudgetError

DEFAULT_BUDGET = 1_000_000
ENV_VAR = "CAUSELAB_BUDGET"

V = TypeVar("V")


class Meter:
    """Tick counter that fails loudly once more than ``limit`` units are
    spent; a context manager that makes itself the current meter."""

    __slots__ = ("limit", "used", "_tokens", "_memo")

    def __init__(self, limit: int | None = None) -> None:
        self.limit = DEFAULT_BUDGET if limit is None else int(limit)
        self.used = 0
        self._tokens: list[Token[Meter | None]] = []
        self._memo: dict[Hashable, Any] = {}

    def charge(self, amount: int = 1) -> None:
        self.used += amount
        if self.used > self.limit:
            raise BudgetError(
                f"{self.used} work units spent against a budget of {self.limit}",
                budget=self.limit,
            )

    def once(self, key: Hashable, compute: Callable[[], V]) -> V:
        """The value stored under ``key`` in this meter, else
        ``compute()``, stored once it returns.  A hit charges nothing; an
        exception out of ``compute``, a :class:`~causelab.errors.BudgetError`
        say, leaves no entry."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def __enter__(self) -> Meter:
        self._tokens.append(_current.set(self))
        return self

    def __exit__(self, *exc_info: object) -> None:
        _current.reset(self._tokens.pop())


_current: ContextVar[Meter | None] = ContextVar("causelab_meter", default=None)


def current_meter() -> Meter:
    """The meter of the innermost enclosing ``with Meter(...)`` block, or
    a fresh meter at the default cap outside any block."""
    meter = _current.get()
    return Meter() if meter is None else meter


def budget_from_env(explicit: int | str | None = None) -> int | None:
    """Resolve the request's budget for the CLI.

    An explicit value (the ``--budget`` flag) wins; otherwise the
    CAUSELAB_BUDGET environment variable applies; otherwise None selects
    the library default.  Either source must hold a positive integer.
    """
    source = ENV_VAR if explicit is None else "--budget"
    raw = os.environ.get(ENV_VAR) if explicit is None else explicit
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{source} must be an integer, got {raw!r}") from None
    if value <= 0:
        raise ValueError(f"{source} must be positive, got {value}")
    return value
