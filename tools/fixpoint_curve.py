"""The cost of one semi-naive round of the demand fixpoint, by input size.

Each input is a transitive-closure program with the goal ``ans``: a
chain of n edges from v0 to vn, or a ladder of two rails joined by a
rung each way at every position, from the start of one rail to the end
of the other.  For each input the fixpoint that ``abduce`` runs, the
magic-sets rewrite of the program evaluated bottom-up, is timed in
process, best of N runs, and one row is printed:

    python tools/fixpoint_curve.py [--quick] [--repeat N]

``rounds`` is the number of semi-naive rounds, ``derivations`` the
ground rule instances that fire, ``units`` the meter charge, ``ms`` the
fixpoint's time and ``us/round`` that time over the rounds.  The default
sizes are chains of 20 to 640 edges and ladders of 4 to 8 rungs;
``--quick`` runs the two smallest of each.  ``--repeat`` defaults to 5.
"""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

# the package of this checkout, so the script runs without an install
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from causelab import Meter, fact, parse_program  # noqa: E402
from causelab.datalog import _demand_fixpoint  # noqa: E402

TC = "T(X, Y) :- E(X, Y).\nT(X, Y) :- E(X, Z), T(Z, Y).\n"
CHAINS = [20, 40, 80, 160, 320, 640]
LADDERS = [4, 5, 6, 7, 8]


def chain(n: int):
    edges = [fact("E", f"v{i}", f"v{i + 1}") for i in range(n)]
    return parse_program(TC + f"ans :- T(v0, v{n})."), frozenset(edges)


def ladder(rungs: int):
    upper = [f"u{i}" for i in range(rungs)]
    lower = [f"l{i}" for i in range(rungs)]
    pairs = list(zip(upper, upper[1:])) + list(zip(lower, lower[1:]))
    pairs += list(zip(upper, lower)) + list(zip(lower, upper))
    program = parse_program(TC + f"ans :- T(u0, l{rungs - 1}).")
    return program, frozenset(fact("E", a, b) for a, b in pairs)


def rounds(derivations: dict) -> int:
    """The rounds of a semi-naive run with these derivations.  A fact no
    rule derives is a start fact, in round 0; a fact first derived in
    round r has a body whose latest fact was derived in round r - 1, and
    one more round finds nothing new.  A head is first recorded in its
    own round, so heads come in round order."""
    inf = float("inf")
    level: dict = {}
    for head, bodies in derivations.items():
        level[head] = min(
            1 + max(level.get(f, inf if f in derivations else 0) for f in body) for body in bodies
        )
    return max(level.values(), default=0) + 1


def measure(program, base: frozenset, repeat: int) -> tuple[int, int, int, float]:
    """Rounds, derivations, units and the best time in seconds."""
    goals = frozenset({fact("ans")})
    times = []
    for _ in range(repeat):
        meter = Meter(10**9)
        start = time.perf_counter()
        entailed, derivations, _ = _demand_fixpoint(program, base, goals, meter)
        times.append(time.perf_counter() - start)
    if not entailed:
        raise RuntimeError("the goal ans is not entailed")
    return rounds(derivations), sum(map(len, derivations.values())), meter.used, min(times)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="the two smallest sizes of each shape")
    parser.add_argument("--repeat", type=int, default=5, help="runs per input; the best is kept")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    cut = 2 if args.quick else None
    inputs = [(f"chain{n}", chain(n)) for n in CHAINS[:cut]]
    inputs += [(f"ladder{k}", ladder(k)) for k in LADDERS[:cut]]
    print(f"{'input':<9} {'rounds':>7} {'derivations':>11} {'units':>7} {'ms':>8} {'us/round':>8}")
    for name, (program, base) in inputs:
        n_rounds, n_derivations, units, seconds = measure(program, base, args.repeat)
        ms, per_round = seconds * 1e3, seconds * 1e6 / n_rounds
        counts = f"{n_rounds:>7} {n_derivations:>11} {units:>7}"
        print(f"{name:<9} {counts} {ms:>8.3f} {per_round:>8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
