from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from causelab import ConjunctiveQuery, DenialConstraint, Instance
from causelab.checks import (
    closure_instance,
    closure_program,
    demo_instance,
    demo_program,
    demo_query,
)

settings.register_profile(
    "causelab",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("causelab")

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture
def d0() -> Instance:
    return demo_instance()


@pytest.fixture
def q0() -> ConjunctiveQuery:
    return demo_query()


@pytest.fixture
def k0() -> DenialConstraint:
    return demo_query()


@pytest.fixture
def prog0():
    return demo_program()


@pytest.fixture
def t0() -> Instance:
    return closure_instance()


@pytest.fixture
def t0_prog():
    return closure_program()


@pytest.fixture(scope="session")
def corpus_reports():
    """The seeded 200-instance cross-check used by the acceptance suite."""
    from causelab.checks import cross_check

    return {r.property_id: r for r in cross_check(seed=1, trials=200, max_size=7)}
