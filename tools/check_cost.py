"""The time and the meter units of each property of one cross-check run.

``causelab check`` runs every property of the harness over one seeded
random corpus inside one ``with Meter`` block.  This script runs
``cross_check(1, trials, 7)``, the corpus of ``check --seed 1``, the
same way, in process, with each property wrapped to time its calls and
to read the meter around each, and prints one row per property in the
order the harness runs them:

    python tools/check_cost.py [--quick] [--repeat N]

``ms`` is the property's time, best of N runs, and ``units`` its meter
charge, which is the same in every run.  Work that properties share
(a corpus item's cached causes, diagnoses or abduction problem, and the
request memo's families) is charged to the first property that touches
it, so a property's row is what it adds to the request, not what it
would cost alone.  The last row is the whole call, corpus included: its
units are the meter's total, the sum of the rows.  ``--repeat``
defaults to 5; ``--quick`` runs 40 trials instead of 200.
"""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

# the package of this checkout, so the script runs without an install
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from causelab import Meter  # noqa: E402
from causelab.checks import PROPERTIES, cross_check  # noqa: E402

SEED = 1
MAX_SIZE = 7


def measure(trials: int) -> tuple[dict[str, float], dict[str, int], float, int]:
    """Each property's seconds and units in one ``cross_check``, then the
    whole call's seconds and units."""
    seconds = dict.fromkeys(PROPERTIES, 0.0)
    units = dict.fromkeys(PROPERTIES, 0)
    meter = Meter()

    def timed(name, check):
        def run(item, rng):
            used, start = meter.used, time.perf_counter()
            try:
                return check(item, rng)
            finally:
                seconds[name] += time.perf_counter() - start
                units[name] += meter.used - used

        return run

    original = dict(PROPERTIES)
    PROPERTIES.update({name: timed(name, check) for name, check in original.items()})
    try:
        with meter:
            start = time.perf_counter()
            cross_check(SEED, trials, MAX_SIZE)
            whole = time.perf_counter() - start
    finally:
        PROPERTIES.update(original)
    return seconds, units, whole, meter.used


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="40 trials instead of 200")
    parser.add_argument("--repeat", type=int, default=5, help="runs; the best time is kept")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    runs = [measure(40 if args.quick else 200) for _ in range(args.repeat)]
    _, units, _, total = runs[0]
    if any((u, t) != (units, total) for _, u, _, t in runs):
        raise RuntimeError("the meter units differ from one run to the next")
    width = max(map(len, units))
    print(f"{'property':<{width}} {'ms':>8} {'units':>6}")
    for name in sorted(units):
        ms = min(seconds[name] for seconds, _, _, _ in runs) * 1e3
        print(f"{name:<{width}} {ms:>8.3f} {units[name]:>6}")
    ms = min(whole for _, _, whole, _ in runs) * 1e3
    print(f"{'total':<{width}} {ms:>8.3f} {total:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
