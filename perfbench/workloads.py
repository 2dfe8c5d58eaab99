"""The four workloads: seeded inputs, the CLI requests made on them, and
the verification of each response against :mod:`reference`.

Each workload is built from a seed into a list of cases (instance plus
query, constraint or program files) and the requests on them.  The
structure of every case (sizes, witness shapes, graph shapes) is fixed
by the workload, because it decides the cost; the seed draws the
constant names, the tuples probed by ``responsibility`` and ``cqa``, and
in ``cq-large`` which targets the extra edges join.  Names keep their
order along the construction, so the cost of the order-sensitive
enumerations does not change with the seed.
"""
from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import reference as ref

Fact = tuple


def fact_text(f: Fact) -> str:
    return f"{f[0]}({', '.join(f[1:])})" if len(f) > 1 else f[0]


def atoms_text(atoms: list[tuple]) -> str:
    return ", ".join(fact_text(a) for a in atoms)


@dataclass
class Case:
    """One instance with the query, denial constraint or program run on it."""

    name: str
    endo: list[Fact]
    exo: list[Fact] = field(default_factory=list)
    query: list[tuple] | None = None
    constraint: list[tuple] | None = None
    program: str | None = None
    probes: dict[str, Fact] = field(default_factory=dict)
    paths: dict[str, str] = field(default_factory=dict)
    _cache: dict = field(default_factory=dict)

    def write(self, workdir: Path) -> None:
        arities = {f[0]: len(f) - 1 for f in self.endo + self.exo}
        for atoms in (self.query or [], self.constraint or []):
            arities.update({a[0]: len(a) - 1 for a in atoms})
        data = {
            "schemas": [{"name": r, "arity": n} for r, n in sorted(arities.items())],
            "endogenous": [list(f) for f in self.endo],
            "exogenous": [list(f) for f in self.exo],
        }
        self.paths["i"] = str(workdir / f"{self.name}.json")
        Path(self.paths["i"]).write_text(json.dumps(data))
        if self.query is not None:
            self.paths["q"] = str(workdir / f"{self.name}.q.dl")
            Path(self.paths["q"]).write_text(f"q() :- {atoms_text(self.query)}.\n")
        if self.constraint is not None:
            self.paths["c"] = str(workdir / f"{self.name}.c.dl")
            Path(self.paths["c"]).write_text(f":- {atoms_text(self.constraint)}.\n")
        if self.program is not None:
            self.paths["p"] = str(workdir / f"{self.name}.p.dl")
            Path(self.paths["p"]).write_text(self.program)

    @property
    def facts(self) -> list[Fact]:
        return self.endo + self.exo

    def _memo(self, key: str, compute: Callable):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def query_witnesses(self) -> set[frozenset]:
        return self._memo("qw", lambda: ref.witnesses(self.facts, self.query))

    def query_hitting(self) -> set[frozenset]:
        """Minimal hitting sets of the endogenous witness parts."""
        endo = set(self.endo)
        return self._memo(
            "qh", lambda: ref.transversals({w & endo for w in self.query_witnesses()})
        )

    def dc_witnesses(self) -> set[frozenset]:
        return self._memo("dw", lambda: ref.witnesses(self.facts, self.constraint))

    def dc_removals(self) -> set[frozenset]:
        """Minimal hitting sets of the violations, over all facts."""
        return self._memo("dh", lambda: ref.transversals(self.dc_witnesses()))


@dataclass
class Request:
    rid: str
    verb: str
    argv: list[str]
    size: dict
    verify: Callable[[dict], str | None]


# ------------------------------------------------------------ verifiers

def _fact(x) -> Fact:
    return tuple(x)


def _family(x) -> set[frozenset]:
    return {frozenset(_fact(f) for f in group) for group in x}


def _verify_causes(case: Case, out: dict, size: dict) -> str | None:
    hitting = case.query_hitting()
    size["witnesses"] = len(case.query_witnesses())
    size["causes"] = len(out["causes"])
    size["out_sets"] = sum(len(e["min_contingencies"]) for e in out["causes"])
    if out["query_holds"] != bool(case.query_witnesses()):
        return "query_holds is wrong"
    expected = ref.responsibilities(hitting) if out["query_holds"] else {}
    got = {_fact(e["tuple"]): e for e in out["causes"]}
    if set(got) != set(expected):
        return f"cause set differs: {len(got)} reported, {len(expected)} expected"
    for t, entry in got.items():
        if Fraction(entry["responsibility"]) != expected[t]:
            return f"responsibility of {fact_text(t)} is {entry['responsibility']}"
        want = {h - {t} for h in hitting if t in h}
        if _family(entry["min_contingencies"]) != want:
            return f"contingency sets of {fact_text(t)} differ"
    return None


def _verify_responsibility(case: Case, t: Fact, out: dict, size: dict) -> str | None:
    size["witnesses"] = len(case.query_witnesses())
    expected = ref.responsibilities(case.query_hitting()).get(t, Fraction(0))
    if _fact(out["tuple"]) != t or Fraction(out["responsibility"]) != expected:
        return f"responsibility of {fact_text(t)}: got {out['responsibility']}, want {expected}"
    return None


def _verify_diagnose(case: Case, out: dict, size: dict) -> str | None:
    size["witnesses"] = len(case.query_witnesses())
    size["out_sets"] = len(out["diagnoses"])
    vacuous = not case.query_witnesses()
    want = {frozenset()} if vacuous else case.query_hitting()
    if out["vacuous"] != vacuous:
        return "vacuous flag is wrong"
    if {frozenset(map(_fact, d["abnormal"])) for d in out["diagnoses"]} != want:
        return "diagnoses differ"
    return None


def _verify_repairs(case: Case, kind: str, endo_only: bool, out: dict, size: dict) -> str | None:
    removals = case.dc_removals()
    size["witnesses"] = len(case.dc_witnesses())
    size["out_sets"] = len(out["repairs"])
    if endo_only:
        endo = set(case.endo)
        removals = {r for r in removals if r <= endo}
    if kind == "C":
        best = min(map(len, removals))
        removals = {r for r in removals if len(r) == best}
    got = [(r["kind"], frozenset(map(_fact, r["removed"]))) for r in out["repairs"]]
    if out["semantics"] != kind or out.get("endogenous_only", False) != endo_only:
        return "semantics flags are wrong"
    if any(k != kind for k, _ in got) or {r for _, r in got} != removals or len(got) != len(removals):
        return f"{kind}-repairs differ: {len(got)} reported, {len(removals)} expected"
    return None


def _verify_cqa(case: Case, a: Fact, out: dict, size: dict) -> str | None:
    size["witnesses"] = len(case.dc_witnesses())
    expected = not any(a in r for r in case.dc_removals())
    if _fact(out["atom"]) != a or out["consistently_true"] is not expected:
        return f"cqa of {fact_text(a)}: got {out['consistently_true']}, want {expected}"
    return None


def _verify_abduce(case: Case, source: str, target: str, out: dict, size: dict) -> str | None:
    edges = [(f[1], f[2]) for f in case.endo]
    solutions = case._memo("sol", lambda: ref.simple_paths(edges, source, target))
    necessary = case._memo("nec", lambda: ref.transversals(solutions))
    size["witnesses"] = len(solutions)
    size["out_sets"] = len(out["solutions"]) + len(out["necessary_sets"])
    if out["observations"] != [["ans"]]:
        return "observations differ"
    if _family(out["solutions"]) != solutions:
        return f"solutions differ: {len(out['solutions'])} reported, {len(solutions)} expected"
    if _family(out["necessary_sets"]) != necessary:
        return f"necessary sets differ: {len(out['necessary_sets'])} reported, {len(necessary)} expected"
    degrees = ref.responsibilities(necessary)
    got = {_fact(e["tuple"]): Fraction(e["responsibility"]) for e in out["relevant_hypotheses"]}
    if got != {h: degrees[h] for h in set().union(*solutions)}:
        return "relevant hypotheses differ"
    return None


_ATOM = re.compile(r"(\w+)\(([^)]*)\)")
_FACT_REPR = re.compile(r"Fact\(relation='([^']*)', args=\(([^)]*)\)\)")


def _parse_atoms(text: str) -> list[tuple]:
    return [(rel, *[t.strip() for t in args.split(",")]) for rel, args in _ATOM.findall(text)]


def _parse_fact_sets(texts: list[str]) -> set[frozenset]:
    return {
        frozenset((rel, *re.findall(r"'([^']*)'", args)) for rel, args in _FACT_REPR.findall(t))
        for t in texts
    }


def _causes(endo: set, facts: set, atoms: list[tuple]) -> set:
    found = ref.witnesses(facts, atoms)
    return set().union(*ref.transversals({w & endo for w in found})) if found else set()


def _confirm_exogenous_insertion(record: dict) -> bool:
    """The added exogenous fact really introduces the causes it names."""
    m = re.fullmatch(r"adding exogenous (.*) introduced causes \[(.*)\]", record["detail"])
    if not m:
        return False
    extra = _parse_atoms(m.group(1))[0]
    gained = set(_parse_atoms(m.group(2)))
    endo = {tuple(f) for f in record["instance"]["endogenous"]}
    facts = endo | {tuple(f) for f in record["instance"]["exogenous"]}
    atoms = _parse_atoms(record["query"])
    new = _causes(endo, facts | {extra}, atoms) - _causes(endo, facts, atoms)
    return bool(gained) and gained <= new


def _confirm_c_repairs_rebuilt(record: dict) -> bool:
    """The direct C-repairs are right and the rebuilt ones differ from them."""
    m = re.fullmatch(r"rebuilt c-repairs differ: direct=(\[.*\]) rebuilt=(\[.*\])", record["detail"])
    if not m:
        return False
    direct, rebuilt = (_parse_fact_sets(json.loads(g)) for g in m.groups())
    facts = {tuple(f) for f in record["instance"]["endogenous"] + record["instance"]["exogenous"]}
    removals = ref.transversals(ref.witnesses(facts, _parse_atoms(record["query"])))
    best = min(map(len, removals))
    return direct == {r for r in removals if len(r) == best} != rebuilt


# Property failures ``check`` reports at many seeds, each confirmed here
# from its counterexample before the response counts as correct.
KNOWN_PROPERTY_FAILURES = {
    "causality.exogenous-insertion-antimonotone": _confirm_exogenous_insertion,
    "repairs.c-repairs-rebuilt-from-top-causes": _confirm_c_repairs_rebuilt,
}


def _verify_check(seed: int, trials: int, out: dict, size: dict) -> str | None:
    """A report is correct when it is complete and each failure it lists
    is a counterexample the reference confirms; a failure of any other
    property cannot be confirmed and fails the response."""
    reports = out["reports"]
    size["out_sets"] = len(reports)
    if (out["seed"], out["trials"], out["max_size"]) != (seed, trials, 7):
        return "check echoes the wrong parameters"
    if len(reports) < 30:
        return f"only {len(reports)} properties were checked"
    if out["passed"] is not all(not r["failures"] for r in reports):
        return "passed disagrees with the reported failures"
    size["property_failures"] = {}
    for r in reports:
        want = 1 if r["property"].startswith("fixtures.") else trials
        if r["instances"] != want:
            return f"{r['property']} ran on {r['instances']} instances, want {want}"
        if not r["failures"]:
            continue
        confirm = KNOWN_PROPERTY_FAILURES.get(r["property"])
        if confirm is None or not all(confirm(json.loads(f)) for f in r["failures"]):
            return f"unconfirmed failure of {r['property']}"
        size["property_failures"][r["property"]] = len(r["failures"])
    return None


# ------------------------------------------------------------- requests

def _request(case: Case, tag: str, verb: str, argv: list[str], check) -> Request:
    size = {"facts": len(case.facts)}
    return Request(f"{case.name}.{tag}", verb, argv, size, lambda out: check(out, size))


def cq_requests(case: Case) -> list[Request]:
    """The six CQ verbs on one case: causes, responsibility of a cause and
    of a non-cause, diagnose, S-repairs plain and endogenous-only,
    C-repairs, and cqa."""
    i, q, c = case.paths["i"], case.paths["q"], case.paths["c"]
    cause, other, atom = case.probes["cause"], case.probes["noncause"], case.probes["cqa"]
    return [
        _request(case, "causes", "causes", ["causes", "-i", i, "-q", q],
                 lambda o, s: _verify_causes(case, o, s)),
        _request(case, "resp_cause", "responsibility",
                 ["responsibility", "-i", i, "-q", q, "--tuple", fact_text(cause)],
                 lambda o, s: _verify_responsibility(case, cause, o, s)),
        _request(case, "resp_noncause", "responsibility",
                 ["responsibility", "-i", i, "-q", q, "--tuple", fact_text(other)],
                 lambda o, s: _verify_responsibility(case, other, o, s)),
        _request(case, "diagnose", "diagnose", ["diagnose", "-i", i, "-q", q],
                 lambda o, s: _verify_diagnose(case, o, s)),
        _request(case, "repairs_s", "repairs_s", ["repairs", "-i", i, "-c", c],
                 lambda o, s: _verify_repairs(case, "S", False, o, s)),
        _request(case, "repairs_s_endo", "repairs_s",
                 ["repairs", "-i", i, "-c", c, "--endogenous-only"],
                 lambda o, s: _verify_repairs(case, "S", True, o, s)),
        _request(case, "repairs_c", "repairs_c", ["repairs", "-i", i, "-c", c, "--semantics", "c"],
                 lambda o, s: _verify_repairs(case, "C", False, o, s)),
        _request(case, "cqa", "cqa", ["cqa", "-i", i, "-c", c, "--atom", fact_text(atom)],
                 lambda o, s: _verify_cqa(case, atom, o, s)),
    ]


def abduce_request(case: Case, source: str, target: str) -> Request:
    return _request(case, "abduce", "abduce", ["abduce", "-i", case.paths["i"], "-p", case.paths["p"]],
                    lambda o, s: _verify_abduce(case, source, target, o, s))


def check_request(seed: int, trials: int = 200) -> Request:
    argv = ["check", "--seed", str(seed)] + ([] if trials == 200 else ["--trials", str(trials)])
    size: dict = {"trials": trials}
    return Request(f"check.{seed}", "check", argv, size,
                   lambda out: _verify_check(seed, trials, out, size))


# ----------------------------------------------------------- generators

class Namer:
    """Constant names that increase in construction order, with random gaps."""

    def __init__(self, rng: random.Random, prefix: str) -> None:
        self.rng, self.prefix, self.value = rng, prefix, 0

    def __call__(self) -> str:
        self.value += self.rng.randint(1, 9)
        return f"{self.prefix}{self.value:06d}"


LARGE_QUERY = [("R", "X", "Y"), ("S", "Y")]
LARGE_CONSTRAINT = [("R", "X", "Y"), ("S", "X"), ("S", "Y")]


def cq_large_case(name: str, facts: int, causes: int, rng: random.Random, violations: int = 4) -> Case:
    """``R`` exogenous edges from distinct sources into ``causes`` of the
    endogenous ``S`` targets; every witness is one edge and its target, so
    the causes are exactly the joined targets, each with responsibility
    1/``causes``.  ``violations`` sources also get an ``S`` fact, which
    violates ``:- R(X, Y), S(X), S(Y).`` once each."""
    n_targets = facts // 2
    n_sources = facts - n_targets - violations
    targets = _names(rng, "b", n_targets)
    sources = _names(rng, "a", n_sources)
    joined = rng.sample(targets, causes)
    edges = list(zip(sources, joined)) + [(a, rng.choice(joined)) for a in sources[causes:]]
    flagged = rng.sample(range(causes), violations)
    case = Case(
        name,
        endo=[("S", b) for b in targets] + [("S", sources[k]) for k in flagged],
        exo=[("R", a, b) for a, b in edges],
        query=LARGE_QUERY,
        constraint=LARGE_CONSTRAINT,
    )
    unjoined = sorted(set(targets) - set(joined))
    case.probes = {
        "cause": ("S", rng.choice(joined)),
        "noncause": ("S", rng.choice(unjoined)),
        "cqa": rng.choice([("R",) + edges[flagged[0]], ("S", rng.choice(unjoined))]),
    }
    return case


def _names(rng: random.Random, prefix: str, count: int) -> list[str]:
    namer = Namer(rng, prefix)
    return [namer() for _ in range(count)]


ENUM_QUERIES = {
    "path2": [("R", "X", "Y"), ("R", "Y", "Z")],
    "path2s": [("R", "X", "Y"), ("R", "Y", "Z"), ("S", "Z")],
}


def cq_enum_case(name: str, query: str, gadgets: list[tuple], rng: random.Random) -> Case:
    """A disjoint union of small gadgets plus one isolated edge and one
    isolated ``S`` fact, which lie in no witness.  All facts are
    endogenous, and the constraint forbids the query's own pattern.

    Gadgets: ``("path", L, s)`` a directed path of L edges; ``("star", p,
    q, s)`` p edges into a hub and q out of it; ``("cycle", L)``.  With
    ``s`` the path's last node, or every out-neighbour of the hub, gets an
    ``S`` fact."""
    v = Namer(rng, "v")
    facts: list[Fact] = []
    for kind, *args in gadgets:
        if kind == "path":
            length, with_s = args
            nodes = [v() for _ in range(length + 1)]
            facts += [("R", a, b) for a, b in zip(nodes, nodes[1:])]
            facts += [("S", nodes[-1])] if with_s else []
        elif kind == "star":
            p, q, with_s = args
            hub = v()
            facts += [("R", v(), hub) for _ in range(p)]
            for _ in range(q):
                out = v()
                facts += [("R", hub, out)] + ([("S", out)] if with_s else [])
        elif kind == "cycle":
            nodes = [v() for _ in range(args[0])]
            facts += [("R", a, b) for a, b in zip(nodes, nodes[1:] + nodes[:1])]
    lone_edge, lone_s = ("R", v(), v()), ("S", v())
    case = Case(name, endo=facts + [lone_edge, lone_s],
                query=ENUM_QUERIES[query], constraint=ENUM_QUERIES[query])
    case.probes = {
        "cause": rng.choice(facts),
        "noncause": lone_edge,
        "cqa": rng.choice(facts + [lone_edge, lone_s]),
    }
    return case


TC_PROGRAM = "T(X, Y) :- E(X, Y).\nT(X, Y) :- E(X, Z), T(Z, Y).\nans :- T({s}, {t}).\n"


def tc_case(name: str, edges: list[tuple[str, str]], source: str, target: str) -> Case:
    return Case(name, endo=[("E", a, b) for a, b in edges],
                program=TC_PROGRAM.format(s=source, t=target))


def chain_case(name: str, length: int, rng: random.Random) -> tuple[Case, str, str]:
    nodes = _names(rng, "n", length + 1)
    return tc_case(name, list(zip(nodes, nodes[1:])), nodes[0], nodes[-1]), nodes[0], nodes[-1]


def ladder_case(name: str, rungs: int, rng: random.Random) -> tuple[Case, str, str]:
    """Two rails of ``rungs - 1`` edges each, joined by a rung in each
    direction at every position; from the start of one rail to the end
    of the other."""
    namer = Namer(rng, "n")
    upper = [namer() for _ in range(rungs)]
    lower = [namer() for _ in range(rungs)]
    edges = list(zip(upper, upper[1:])) + list(zip(lower, lower[1:]))
    edges += [(a, b) for a, b in zip(upper, lower)] + [(b, a) for a, b in zip(upper, lower)]
    return tc_case(name, edges, upper[0], lower[-1]), upper[0], lower[-1]


# ------------------------------------------------------------ workloads

@dataclass
class Workload:
    name: str
    cases: list[Case]
    requests: list[Request]
    warmup: list[Request]
    per_pass: Callable[[int], list[Request]] | None = None

    def pass_requests(self, k: int) -> list[Request]:
        return self.per_pass(k) if self.per_pass else self.requests


# (facts, causes) per cq-large level; the last level exceeds the
# recursion depth of the hitting-set search, so only ``causes`` runs there.
CQ_LARGE_LEVELS = [(400, 100), (700, 175), (1000, 250)]
CQ_LARGE_TOP = (2150, 1060)

CQ_ENUM_CASES = [
    ("path2", [("path", 2, False)] * 4),
    ("path2", [("path", 3, False)] * 5),
    ("path2", [("path", 4, False)] * 4),
    ("path2", [("cycle", 3)] * 5),
    ("path2s", [("path", 2, True)] * 6),
    ("path2", [("star", 2, 2, False)] * 4 + [("star", 1, 2, False)]),
    ("path2s", [("star", 2, 2, True)] * 2 + [("star", 1, 2, True)]),
    ("path2", [("path", 2, False)] * 10),
]

TC_CHAINS = [20, 40, 80, 160]
TC_LADDERS = [4, 5, 6]


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Generate the inputs of one workload and write them under ``workdir``."""
    rng = random.Random(f"{name}/{seed}")
    cases: list[Case] = []
    requests: list[Request] = []
    warmup: list[Request] = []
    per_pass = None

    def add(case: Case, into: list[Request], make) -> None:
        case.write(workdir)
        cases.append(case)
        into.extend(make(case))

    if name == "cq-large":
        add(cq_large_case("warm", 200, 50, rng), warmup, cq_requests)
        for facts, causes in CQ_LARGE_LEVELS:
            add(cq_large_case(f"n{facts}", facts, causes, rng), requests, cq_requests)
        facts, causes = CQ_LARGE_TOP
        add(cq_large_case(f"n{facts}", facts, causes, rng), requests, lambda c: cq_requests(c)[:1])
    elif name == "cq-enum":
        add(cq_enum_case("warm", "path2", [("path", 2, False)] * 3, rng), warmup, cq_requests)
        for k, (query, gadgets) in enumerate(CQ_ENUM_CASES):
            add(cq_enum_case(f"e{k}", query, gadgets, rng), requests, cq_requests)
    elif name == "datalog-tc":
        shapes = [("warm", chain_case, 10, warmup)]
        shapes += [(f"chain{n}", chain_case, n, requests) for n in TC_CHAINS]
        shapes += [(f"ladder{k}", ladder_case, k, requests) for k in TC_LADDERS]
        for case_name, make, size, into in shapes:
            case, source, target = make(case_name, size, rng)
            add(case, into, lambda c: [abduce_request(c, source, target)])
    elif name == "harness":
        base = rng.randrange(10**6)
        warmup.append(check_request(base, trials=20))
        per_pass = lambda k: [check_request(base + 1 + k)]  # noqa: E731
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Workload(name, cases, requests, warmup, per_pass)


WORKLOADS = ["cq-large", "cq-enum", "datalog-tc", "harness"]
