"""The benchmark's tracer rebinds causelab functions by module and name,
so a rename in causelab must show up here rather than in a traced run."""
from __future__ import annotations

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracer")


def test_every_traced_target_resolves(tracer):
    missing = [
        f"{module}.{name}"
        for module, name, _, _ in tracer._targets()
        if not callable(getattr(importlib.import_module(f"causelab.{module}"), name, None))
    ]
    assert missing == []


def test_model_valuations_exists():
    # Tracer.install dereferences it directly: a rename crashes traced runs.
    assert callable(importlib.import_module("causelab.model").valuations)
