"""A smoke run of ``tools/check_cost.py`` on its quick corpus: one row per
harness property, in the order ``check`` reports them, whose units add up
to the meter's total for the same ``cross_check`` run on its own."""
from __future__ import annotations

import importlib
from pathlib import Path

from causelab import Meter
from causelab.checks import PROPERTIES, cross_check

TOOLS = Path(__file__).resolve().parents[1] / "tools"

PROPERTY_IDS = [
    "causality.causes-match-enumeration",
    "causality.endogenous-insertion-monotone",
    "causality.engines-agree",
    "causality.exogenous-insertion-antimonotone",
    "causality.responsibility-boundaries",
    "core.constraint-duality",
    "core.eval-iff-witnesses",
    "core.eval-monotone",
    "core.witnesses-match-enumeration",
    "datalog.entailment-monotone",
    "datalog.necessary-sets-equal-diagnoses",
    "datalog.necessary-sets-match-enumeration",
    "datalog.relevant-equal-causes",
    "datalog.responsibility-matches-bcq",
    "datalog.seminaive-matches-naive",
    "datalog.solutions-match-enumeration",
    "datalog.solutions-valid-and-minimal",
    "diagnosis.causes-agree",
    "diagnosis.matches-enumeration",
    "diagnosis.repair-bridge",
    "repairs.c-repairs-rebuilt-from-top-causes",
    "repairs.c-repairs-within-s",
    "repairs.causes-from-repairs-agree",
    "repairs.cqa-matches-repair-intersection",
    "repairs.endogenous-only-filter",
    "repairs.removals-match-enumeration",
    "repairs.s-repairs-rebuilt-from-causes",
]


def test_quick_cost_lists_every_property_and_sums_to_the_request(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(TOOLS))
    tool = importlib.import_module("check_cost")
    properties = dict(PROPERTIES)
    assert tool.main(["--quick", "--repeat", "2"]) == 0
    assert PROPERTIES == properties
    header, *rows, total = (line.split() for line in capsys.readouterr().out.splitlines())
    assert header == ["property", "ms", "units"]
    assert [name for name, _, _ in rows] == PROPERTY_IDS
    with Meter() as meter:
        cross_check(1, 40, 7)
    assert total[0] == "total"
    assert int(total[2]) == sum(int(units) for _, _, units in rows) == meter.used > 0
    assert float(total[1]) >= sum(float(ms) for _, ms, _ in rows) > 0
