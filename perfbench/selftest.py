"""Self-test of the benchmark's verification.

    python3 perfbench/selftest.py

Runs the warm-up requests of every workload through the CLI, checks
that each response verifies, then corrupts each response in a way that
changes its meaning and checks that the verifier flags it.  Exits 0
when every correct response passes and every corrupted one is caught.
"""
from __future__ import annotations

import copy
import json
import shutil
import sys
from fractions import Fraction

import run
import workloads


def corruptions(verb: str, out: dict) -> list[tuple[str, dict]]:
    """Ways to make a correct response wrong, each named."""
    out = copy.deepcopy(out)
    cases: list[tuple[str, dict]] = []

    def variant(name: str, edit) -> None:
        bad = copy.deepcopy(out)
        edit(bad)
        cases.append((name, bad))

    if verb == "causes":
        variant("drop a cause", lambda o: o["causes"].pop())
        variant("halve a responsibility", lambda o: o["causes"][0].update(
            responsibility=str(Fraction(o["causes"][0]["responsibility"]) / 2)))
        variant("drop a contingency set", lambda o: o["causes"][0]["min_contingencies"].pop())
    elif verb == "responsibility":
        variant("change the value", lambda o: o.update(responsibility="1/7"))
    elif verb == "diagnose":
        variant("drop a diagnosis", lambda o: o["diagnoses"].pop())
    elif verb in ("repairs_s", "repairs_c"):
        variant("drop a repair", lambda o: o["repairs"].pop())
        variant("drop a removed fact", lambda o: o["repairs"][0]["removed"].pop())
    elif verb == "cqa":
        variant("flip the answer", lambda o: o.update(consistently_true=not o["consistently_true"]))
    elif verb == "abduce":
        variant("drop a necessary set", lambda o: o["necessary_sets"].pop())
        variant("drop a relevant hypothesis", lambda o: o["relevant_hypotheses"].pop())
    elif verb == "check":
        variant("claim an unconfirmed failure", lambda o: (o.update(passed=False), o["reports"][0]["failures"].append(
            json.dumps({"detail": "made up", "instance": {}, "query": ""}))))
        variant("drop a property", lambda o: o["reports"].pop())
    return cases


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    cli = run.import_cli()
    workdir = run.ROOT / ".perfbench_work" / "selftest"
    problems: list[str] = []
    checked = caught = 0
    try:
        for name in workloads.WORKLOADS:
            target = workdir / name
            target.mkdir(parents=True, exist_ok=True)
            wl = workloads.build(name, 7, target)
            for req in wl.warmup:
                _, _, status, text, _ = run.call(cli.main, req.argv)
                if status != "ok" or run.Verifier().check(req, text) != "ok":
                    problems.append(f"{req.rid}: correct response not accepted ({status})")
                    continue
                checked += 1
                for what, bad in corruptions(req.verb, json.loads(text)):
                    if run.Verifier().check(req, json.dumps(bad)) == "mismatch":
                        caught += 1
                    else:
                        problems.append(f"{req.rid}: '{what}' not flagged")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in problems:
        print("FAIL", p)
    print(f"{checked} responses verified, {caught} corruptions flagged, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
