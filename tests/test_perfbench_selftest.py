"""The benchmark's verifiers accept the CLI's current output: a change to
that output which the benchmark would reject fails here first.

The self-test runs in its own process because the benchmark re-imports
causelab from scratch, which would replace the modules under test."""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    done = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
