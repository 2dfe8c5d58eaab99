"""Command-line front end.

Verbs: causes, responsibility, repairs, cqa, diagnose, abduce, check.
Exit codes: 0 success, 1 usage, 2 parse or validation error, 3 budget
exceeded, 4 domain error.  Output is canonical JSON by default; tables
are for humans, the JSON is the contract.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any, Iterable

from .abduction import abductive_solutions, necessary_sets, problem_for_instance
from .budget import Meter, budget_from_env
from .causality import actual_causes, responsibility
from .checks import cross_check, fixture_checks
from .diagnosis import build_problem, minimal_diagnoses
from .errors import BudgetError, DomainError, ParseError, SchemaError
from .model import Fact, Instance, witnesses
from .oracles import LATTICE_CAP
from .parsing import (
    parse_denial_constraints,
    parse_ground_atom,
    parse_program,
    parse_query,
)
from .repairs import c_repairs, consistently_true, endogenous_s_repairs, s_repairs
from .serialize import (
    cause_set_to_list,
    dumps,
    family_to_list,
    instance_from_dict,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_DOMAIN = 4


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def load_instance(path: str) -> Instance:
    try:
        raw = json.loads(_read(path))
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno) from None
    except RecursionError:
        raise ParseError(f"{path} nests JSON too deeply to decode") from None
    return instance_from_dict(raw)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process:
    each parse fills a fresh namespace, so one parse leaves nothing for
    the next."""
    parser = argparse.ArgumentParser(prog="causelab", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p: argparse.ArgumentParser, instance: bool = True) -> None:
        if instance:
            p.add_argument("-i", "--instance", required=True, help="instance JSON file")
        p.add_argument("--format", choices=["json", "table"], default="json")
        p.add_argument("--budget", help="work cap per request")

    p = sub.add_parser("causes", help="actual causes for a query answer")
    common(p)
    p.add_argument("-q", "--query", required=True, help="query file (q() :- body.)")

    p = sub.add_parser("responsibility", help="responsibility of one tuple")
    common(p)
    p.add_argument("-q", "--query", required=True)
    p.add_argument("--tuple", required=True, dest="tuple_", metavar="TUPLE", help='e.g. "S(a1)"')

    p = sub.add_parser("repairs", help="repairs wrt denial constraints")
    common(p)
    p.add_argument("-c", "--constraints", required=True, help="constraint file (:- body.)")
    p.add_argument("--semantics", choices=["s", "c"], default="s")
    p.add_argument("--endogenous-only", action="store_true")

    p = sub.add_parser("cqa", help="consistent answer for a ground atom")
    common(p)
    p.add_argument("-c", "--constraints", required=True)
    p.add_argument("--atom", required=True, help='e.g. "R(a1, a4)"')

    p = sub.add_parser("diagnose", help="minimal diagnoses for a query observation")
    common(p)
    p.add_argument("-q", "--query", required=True)

    p = sub.add_parser("abduce", help="abductive explanations for a Datalog program")
    common(p)
    p.add_argument("-p", "--program", required=True, help="Datalog rule file")
    p.add_argument(
        "--obs",
        action="append",
        default=None,
        help="observed ground atom (repeatable); defaults to the answer atom",
    )

    p = sub.add_parser("check", help="run the cross-check harness")
    common(p, instance=False)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--max-size", type=int, default=7)

    return parser


def _facts_table(rows: list[list[str]]) -> str:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip() for row in rows]
    return "\n".join(lines) + "\n"


def _fact_sets(family: Iterable[list[Fact]]) -> str:
    """Set notation for a family of fact sets, each fact in input syntax:
    ``{}`` is the empty set and ``none`` the empty family."""
    sets = ("{" + ", ".join(map(str, fs)) + "}" for fs in family)
    return "; ".join(sets) or "none"


def _cmd_causes(args: argparse.Namespace) -> dict[str, Any]:
    instance = load_instance(args.instance)
    query = parse_query(_read(args.query))
    causes = actual_causes(instance, query)
    # a query with a cause holds; one without reads the witnesses the
    # causes were read off
    holds = bool(causes) or bool(witnesses(instance.facts, query, instance.schemas))
    payload: dict[str, Any] = {"query_holds": holds, "causes": cause_set_to_list(causes)}
    if not holds:
        payload["note"] = "the query is false in this instance; there is no answer to explain"
    return payload


def _cmd_responsibility(args: argparse.Namespace) -> dict[str, Any]:
    instance = load_instance(args.instance)
    query = parse_query(_read(args.query))
    t = parse_ground_atom(args.tuple_)
    rho = responsibility(instance, query, t)
    return {"tuple": t, "responsibility": str(rho)}


def _cmd_repairs(args: argparse.Namespace) -> dict[str, Any]:
    instance = load_instance(args.instance)
    constraints = parse_denial_constraints(_read(args.constraints))
    if args.endogenous_only:
        found = endogenous_s_repairs(instance, constraints)
    elif args.semantics == "s":
        found = s_repairs(instance, constraints)
    else:
        found = c_repairs(instance, constraints)
    kind = args.semantics.upper()
    payload: dict[str, Any] = {
        "semantics": kind,
        "repairs": family_to_list(found, "removed", kind=kind),
    }
    if args.endogenous_only:
        payload["endogenous_only"] = True
    return payload


def _cmd_cqa(args: argparse.Namespace) -> dict[str, Any]:
    instance = load_instance(args.instance)
    constraints = parse_denial_constraints(_read(args.constraints))
    if len(constraints) != 1:
        raise ParseError("cqa expects exactly one denial constraint")
    a = parse_ground_atom(args.atom)
    value = consistently_true(instance, constraints[0], a)
    return {"atom": a, "consistently_true": value}


def _cmd_diagnose(args: argparse.Namespace) -> dict[str, Any]:
    instance = load_instance(args.instance)
    query = parse_query(_read(args.query))
    problem = build_problem(instance, query)
    return {
        "vacuous": problem.vacuous,
        "diagnoses": family_to_list(minimal_diagnoses(problem), "abnormal"),
    }


def _cmd_abduce(args: argparse.Namespace) -> dict[str, Any]:
    instance = load_instance(args.instance)
    program = parse_program(_read(args.program))
    observations = None
    if args.obs:
        observations = [parse_ground_atom(o) for o in args.obs]
    problem = problem_for_instance(program, instance, observations)
    # The solutions form an antichain, so every relevant hypothesis is in a
    # necessary set and its responsibility is 1/|N| for the smallest such
    # N.  The necessary sets are listed anyway, so the least size is read
    # off them: visited largest first, each tuple keeps the last, least one.
    # A smaller least size is a higher responsibility, so the hypotheses
    # sort by (size, tuple).
    solutions = abductive_solutions(problem)
    necessary = necessary_sets(problem)
    least = {t: len(n) for n in sorted(necessary, key=len, reverse=True) for t in n}
    return {
        "observations": sorted(problem.obs),
        "solutions": family_to_list(solutions),
        "relevant_hypotheses": [
            {"tuple": t, "responsibility": str(Fraction(1, k))}
            for k, t in sorted(zip(least.values(), least))
        ],
        "necessary_sets": family_to_list(necessary),
    }


def _cmd_check(args: argparse.Namespace) -> dict[str, Any]:
    reports = fixture_checks() + cross_check(args.seed, args.trials, args.max_size)
    return {
        "seed": args.seed,
        "trials": args.trials,
        "max_size": args.max_size,
        "reports": [
            {
                "property": r.property_id,
                "instances": r.instances,
                "failures": list(r.failures),
            }
            for r in reports
        ],
        "passed": all(r.passed for r in reports),
    }


def _render_table(verb: str, payload: dict[str, Any]) -> str:
    if verb == "causes":
        rows = [["cause", "responsibility", "min contingency sets"]]
        for entry in payload["causes"]:
            rows.append(
                [
                    str(entry["tuple"]),
                    entry["responsibility"],
                    _fact_sets(entry["min_contingencies"]),
                ]
            )
        out = _facts_table(rows)
        if not payload["query_holds"]:
            out += "note: " + payload["note"] + "\n"
        return out
    if verb == "responsibility":
        return f"{payload['tuple']}: {payload['responsibility']}\n"
    if verb == "repairs":
        rows = [["kind", "removed"]]
        for entry in payload["repairs"]:
            rows.append([entry["kind"], _fact_sets([entry["removed"]])])
        return _facts_table(rows)
    if verb == "cqa":
        return f"{payload['atom']}: {str(payload['consistently_true']).lower()}\n"
    if verb == "diagnose":
        rows = [["diagnosis"]]
        for entry in payload["diagnoses"]:
            rows.append([_fact_sets([entry["abnormal"]])])
        out = _facts_table(rows)
        if payload["vacuous"]:
            out += "note: the observation does not hold; the empty diagnosis suffices\n"
        return out
    if verb == "abduce":
        rows = [["hypothesis", "responsibility"]]
        for entry in payload["relevant_hypotheses"]:
            rows.append([str(entry["tuple"]), entry["responsibility"]])
        return (
            "solutions: " + _fact_sets(payload["solutions"]) + "\n"
            "necessary sets: " + _fact_sets(payload["necessary_sets"]) + "\n"
            + _facts_table(rows)
        )
    if verb == "check":
        rows = [["property", "instances", "result"]]
        for entry in payload["reports"]:
            rows.append(
                [
                    entry["property"],
                    str(entry["instances"]),
                    "pass" if not entry["failures"] else f"FAIL ({len(entry['failures'])})",
                ]
            )
        return _facts_table(rows)
    raise AssertionError(verb)


_HANDLERS = {
    "causes": _cmd_causes,
    "responsibility": _cmd_responsibility,
    "repairs": _cmd_repairs,
    "cqa": _cmd_cqa,
    "diagnose": _cmd_diagnose,
    "abduce": _cmd_abduce,
    "check": _cmd_check,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.verb == "check" and min(args.trials, args.max_size) < 0:
            raise ValueError("--trials and --max-size must not be negative")
        if args.verb == "check" and args.max_size > LATTICE_CAP:
            raise ValueError(
                f"--max-size must be at most {LATTICE_CAP}, the brute-force oracles' cap"
            )
        if args.verb == "repairs" and args.endogenous_only and args.semantics != "s":
            raise ValueError("--endogenous-only applies to the s semantics only")
        budget = budget_from_env(args.budget)
    except SystemExit as exc:
        # argparse exits 2 on a usage error and 0 after --help
        return EXIT_USAGE if exc.code else EXIT_OK
    except ValueError as exc:
        print(f"causelab: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        with Meter(budget):
            payload = _HANDLERS[args.verb](args)
    except ParseError as exc:
        print(f"causelab: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SchemaError as exc:
        print(f"causelab: schema error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"causelab: validation error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetError as exc:
        print(f"causelab: budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except DomainError as exc:
        print(f"causelab: domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    if args.format == "json":
        sys.stdout.write(dumps(payload))
    else:
        sys.stdout.write(_render_table(args.verb, payload))
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
