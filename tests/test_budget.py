from __future__ import annotations

import pytest

from causelab import BudgetError, Meter, budget, eval_bcq, witnesses
from causelab.budget import DEFAULT_BUDGET, current_meter
from causelab.hitting import min_hitting_size, smallest_hitting_sets, smallest_set_elements
from causelab.model import valuations


def test_outside_a_block_each_call_gets_a_fresh_default_meter():
    first, second = current_meter(), current_meter()
    assert first is not second
    assert first.limit == second.limit == DEFAULT_BUDGET
    assert first.used == second.used == 0


def test_nested_blocks_restore_the_outer_meter():
    with Meter(100) as outer:
        assert current_meter() is outer
        with Meter(10) as inner:
            assert current_meter() is inner
        assert current_meter() is outer
    assert current_meter() is not outer


def test_one_meter_may_be_entered_twice():
    meter = Meter(100)
    with meter:
        with meter:
            assert current_meter() is meter
        assert current_meter() is meter
    assert current_meter() is not meter


def test_meter_is_restored_when_the_block_raises(d0, q0):
    with pytest.raises(BudgetError), Meter(1):
        witnesses(d0.facts, q0)
    assert current_meter().limit == DEFAULT_BUDGET


def test_eval_bcq_and_witnesses_share_the_block_meter(d0, q0):
    with Meter() as m:
        assert eval_bcq(d0.facts, q0)
        after_eval = m.used
        witnesses(d0.facts, q0)
    assert m.used > after_eval > 0


def test_valuations_charge_the_meter_current_at_the_call(d0, q0):
    with Meter() as m:
        found = valuations(d0.facts, q0)
    assert list(found)
    assert m.used > 0


# 40 disjoint paths of 13 elements, 40 components of 12 members each; one
# path's minimum costs 27 units
PATHS = [{13 * p + i, 13 * p + i + 1} for p in range(40) for i in range(12)]


@pytest.mark.parametrize(
    "route, spent",
    [(min_hitting_size, 1080), (smallest_set_elements, 3560), (smallest_hitting_sets, 3561)],
)
def test_a_hitting_set_call_outside_a_block_is_capped_as_a_whole(monkeypatch, route, spent):
    # outside a block the call's one fresh meter takes every component's
    # search and the product, so it fails exactly where a block of the
    # same cap fails
    with Meter() as meter:
        route(PATHS)
    assert meter.used == spent
    for cap in (54, spent - 1, spent):
        monkeypatch.setattr(budget, "DEFAULT_BUDGET", cap)
        try:
            with Meter(cap):
                inside = route(PATHS)
        except BudgetError as error:
            inside = str(error)
        try:
            outside = route(PATHS)
        except BudgetError as error:
            outside = str(error)
        assert outside == inside
        assert isinstance(inside, str) == (cap < spent)
