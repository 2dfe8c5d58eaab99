"""A smoke run of ``tools/fixpoint_curve.py`` at its two smallest sizes
of each shape: the rounds, derivations and meter units it prints are
exact counts of the demand fixpoint."""
from __future__ import annotations

import importlib
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def test_quick_curve_prints_the_fixpoint_counts(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(TOOLS))
    tool = importlib.import_module("fixpoint_curve")
    assert tool.main(["--quick", "--repeat", "1"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["input", "rounds", "derivations", "units", "ms", "us/round"]
    counts = {row.split()[0]: [int(x) for x in row.split()[1:4]] for row in rows}
    # a chain of n edges takes 2n + 2 rounds and as many derivations, and
    # its units are the chain's 11n + 7 less the 2n + 3 of its supports
    assert counts == {
        "chain20": [42, 42, 184],
        "chain40": [82, 82, 364],
        "ladder4": [10, 32, 113],
        "ladder5": [12, 40, 143],
    }
    for row in rows:
        ms, per_round = map(float, row.split()[4:])
        assert ms > 0 and per_round > 0
