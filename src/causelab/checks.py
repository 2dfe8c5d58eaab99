"""Cross-check harness: runs every documented equivalence between the
causality, repair, diagnosis and abduction routes over seeded random
instances, plus exact-value checks on the built-in demo fixtures.

A property maps a corpus item and a random source to ``None`` or a
failure detail.  One that only asks two routes for the same value is an
:func:`_agree` entry of :data:`PROPERTIES`.  One with its own logic is a
function; it makes each comparison over every tuple or sample at once,
as a map or a set, and reports the first comparison that fails.  Every
comparison, the fixtures' included, goes through :func:`_differ`, which
prints both sides in input syntax (``R(a, b)``), with facts, fact sets
and map keys in :mod:`causelab.serialize`'s canonical order.  So a
counterexample's text depends on the inputs alone, not on hash order.
The work units several properties share are cached properties of
:class:`CorpusItem`.  The per-tuple routes rebuild their family for every
tuple; inside the request's ``with Meter`` block, which the CLI opens,
each witness family, support family and component split is built once
and handed back to every later call (:meth:`causelab.budget.Meter.once`).

Failures are data, not errors: each report carries serialized
counterexamples for replay.
"""
from __future__ import annotations

import json
import random
from collections.abc import Mapping, Set
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import product
from typing import Callable, TypeAlias

from .abduction import (
    AbductionProblem,
    abductive_solutions,
    datalog_actual_causes,
    datalog_responsibility,
    necessary_sets,
    problem_for_instance,
    relevant_hypotheses,
)
from .causality import (
    CauseSet,
    actual_causes,
    is_counterfactual_cause,
    minimal_contingency_sets,
    responsibility,
    responsibility_of,
)
from .datalog import DatalogProgram, DatalogRule, entails, evaluate
from .diagnosis import (
    Diagnosis,
    build_problem,
    causes_via_diagnosis,
    minimal_diagnoses,
    smallest_diagnoses_containing,
)
from .errors import DomainError
from .model import (
    Atom,
    ConjunctiveQuery,
    Fact,
    Instance,
    RelationSchema,
    Variable,
    eval_bcq,
    fact,
    satisfies_dc,
    witnesses,
)
from .oracles import (
    FixpointLattice,
    causes_by_enumeration,
    diagnoses_by_enumeration,
    holds_by_nested_loops,
    naive_datalog_model,
    s_repair_removals_by_enumeration,
    witnesses_by_enumeration,
)
from .parsing import parse_program, parse_query
from .repairs import (
    Repair,
    c_repairs,
    c_repairs_from_most_responsible,
    causes_from_repairs,
    consistently_true,
    endogenous_s_repairs,
    s_repairs,
    s_repairs_from_causes,
)
from .serialize import (
    cause_set_to_list,
    dumps,
    instance_to_dict,
)

__all__ = [
    "CheckReport",
    "CorpusItem",
    "build_corpus",
    "cross_check",
    "fixture_checks",
    "PROPERTIES",
    "demo_instance",
    "demo_query",
    "demo_program",
    "closure_instance",
    "closure_program",
]


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one property over the corpus."""

    property_id: str
    instances: int
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class CorpusItem:
    """One random instance and query.  The work units several properties
    share are cached properties, so they live exactly as long as the
    corpus."""

    instance: Instance
    query: ConjunctiveQuery

    @cached_property
    def causes(self) -> CauseSet:
        return actual_causes(self.instance, self.query)

    @cached_property
    def oracle_causes(self) -> CauseSet:
        return causes_by_enumeration(self.instance, self.query)

    @cached_property
    def s_removals(self) -> frozenset[Repair]:
        return s_repairs(self.instance, [self.query])

    @cached_property
    def violation_causes(self) -> CauseSet:
        """The causes of the query read as a denial constraint's violation:
        every fact is endogenous."""
        return actual_causes(self.instance.all_endogenous(), self.query)

    @cached_property
    def diagnoses(self) -> frozenset[Diagnosis]:
        return minimal_diagnoses(build_problem(self.instance, self.query))

    @cached_property
    def program(self) -> DatalogProgram:
        """The query as the single rule ``ans() :- body``."""
        return DatalogProgram((DatalogRule(Atom("ans", ()), self.query.atoms),))

    @cached_property
    def lattice(self) -> FixpointLattice:
        """The naive fixpoints of the program over the exogenous facts and
        each subset of the endogenous ones: the lattice of the item's
        abduction problem, which the three Datalog oracles read."""
        instance, goal = self.instance, frozenset({self.program.answer_atom()})
        return FixpointLattice(self.program, instance.exogenous, instance.endogenous, goal)

    @cached_property
    def problem(self) -> AbductionProblem | None:
        """The program's abduction problem for its answer atom, or None
        when the instance does not entail it."""
        if entails(self.program, self.instance.facts, {self.program.answer_atom()}):
            return problem_for_instance(self.program, self.instance)
        try:
            problem_for_instance(self.program, self.instance)
        except DomainError:
            return None
        raise AssertionError("construction accepted an unentailed observation")


# ---------------------------------------------------------------- fixtures

def demo_instance() -> Instance:
    """Six endogenous facts over R/2 and S/1; the running demo database."""
    return Instance.infer(
        endogenous=[
            fact("R", "a1", "a4"), fact("R", "a2", "a1"), fact("R", "a3", "a3"),
            fact("S", "a1"), fact("S", "a2"), fact("S", "a3"),
        ]
    )


def demo_query() -> ConjunctiveQuery:
    return parse_query("q() :- R(X, Y), S(Y).")


def demo_program() -> DatalogProgram:
    return parse_program("ans() :- R(X, Y), S(Y).")


def closure_instance() -> Instance:
    """Two endogenous edges a->b->c for the recursive-closure fixture."""
    return Instance.infer(endogenous=[fact("E", "a", "b"), fact("E", "b", "c")])


def closure_program() -> DatalogProgram:
    return parse_program("T(X, Y) :- E(X, Y).\nT(X, Y) :- E(X, Z), T(Z, Y).\nans() :- T(a, c).")


# ------------------------------------------------------- corpus generation

def random_instance(rng: random.Random, max_size: int) -> Instance:
    names = ["R", "S", "T"][: rng.randint(1, 3)]
    schemas = frozenset(RelationSchema(n, rng.randint(1, 2)) for n in names)
    constants = list("abcde")[: rng.randint(2, 5)]
    possible = [
        Fact(s.name, combo)
        for s in sorted(schemas)
        for combo in product(constants, repeat=s.arity)
    ]
    probability = rng.uniform(0.05, 0.45)
    chosen = [f for f in possible if rng.random() < probability]
    if len(chosen) > max_size:
        chosen = rng.sample(chosen, max_size)
    endogenous, exogenous = [], []
    for f in chosen:
        (endogenous if rng.random() < 0.7 else exogenous).append(f)
    return Instance(schemas, frozenset(endogenous), frozenset(exogenous))


def random_query(rng: random.Random, instance: Instance) -> ConjunctiveQuery:
    schemas = sorted(instance.schemas)
    constants = sorted({a for f in instance.facts for a in f.args} | {"a", "b"})
    variables = [Variable("X"), Variable("Y"), Variable("Z")]
    atoms = []
    for _ in range(rng.randint(1, 3)):
        s = rng.choice(schemas)
        terms = tuple(
            rng.choice(variables) if rng.random() < 0.7 else rng.choice(constants)
            for _ in range(s.arity)
        )
        atoms.append(Atom(s.name, terms))
    return ConjunctiveQuery(tuple(atoms))


def build_corpus(seed: int, trials: int, max_size: int) -> list[CorpusItem]:
    rng = random.Random(seed)
    return [
        CorpusItem(instance := random_instance(rng, max_size), random_query(rng, instance))
        for _ in range(trials)
    ]


def _random_subset(rng: random.Random, facts: frozenset[Fact]) -> frozenset[Fact]:
    # drawn in sorted order, so the sample does not depend on hash order
    return frozenset(f for f in sorted(facts) if rng.random() < 0.5)


def _fresh_fact(instance: Instance, rng: random.Random) -> Fact | None:
    constants = sorted({a for f in instance.facts for a in f.args} | set("abcdef"))
    schemas = sorted(instance.schemas)
    for _ in range(40):
        s = rng.choice(schemas)
        candidate = Fact(s.name, tuple(rng.choice(constants) for _ in range(s.arity)))
        if candidate not in instance.facts:
            return candidate
    return None


# --------------------------------------------------------- the comparison

# A string: a subscripted Callable would sit in typing's cache and keep
# this module alive after the package is imported afresh.
Property: TypeAlias = "Callable[[CorpusItem, random.Random], str | None]"


def _order(value: object) -> object:
    """A member's place in canonical order: a set by its sorted members,
    as serialize orders families, anything else (a fact) by itself."""
    return sorted(value) if isinstance(value, Set) else value


def _render(value: object) -> str:
    """Input-syntax text for a fact, a set or a map, members and keys in
    canonical order; a scalar such as a Fraction or a size by ``str``."""
    if isinstance(value, Mapping):
        pairs = (f"{_render(k)}: {_render(value[k])}" for k in sorted(value, key=_order))
        return "{" + ", ".join(pairs) + "}"
    if isinstance(value, Set):
        return "{" + ", ".join(map(_render, sorted(value, key=_order))) + "}"
    return str(value)


def _differ(what: str, fast: object, slow: object) -> str | None:
    """None when both sides are equal, else a detail rendering both."""
    if fast == slow:
        return None
    return f"{what}: {_render(fast)} != {_render(slow)}"


def _agree(
    what: str, fast: Callable[[CorpusItem], object], slow: Callable[[CorpusItem], object]
) -> Property:
    """The property that two routes give the same value."""
    return lambda item, rng: _differ(what, fast(item), slow(item))


def _needs_problem(check: Property) -> Property:
    """Skip the items whose instance does not entail the program's answer."""
    return lambda item, rng: None if item.problem is None else check(item, rng)


def _endogenous_removals(item: CorpusItem) -> frozenset[Repair]:
    return frozenset(r for r in item.s_removals if r <= item.instance.endogenous)


def _cause_rho(item: CorpusItem, t: Fact) -> Fraction:
    return responsibility_of(item.causes.get(t, ()))


# ----------------------------------------------------------- the properties

def _prop_constraint_duality(item: CorpusItem, rng: random.Random) -> str | None:
    # the nested-loop join shares no code with satisfies_dc's join engine
    facts, q = item.instance.facts, item.query
    samples = [facts, _random_subset(rng, facts), _random_subset(rng, facts)]
    return _differ(
        "subsets where satisfies_dc and the nested-loop join disagree",
        {s for s in samples if satisfies_dc(s, q) == holds_by_nested_loops(s, q)},
        set(),
    )


def _prop_eval_monotone(item: CorpusItem, rng: random.Random) -> str | None:
    pairs = []
    for _ in range(3):
        bigger = _random_subset(rng, item.instance.facts)
        pairs.append((_random_subset(rng, bigger), bigger))
    return _differ(
        "subsets where the query holds, each with a superset where it does not",
        {s: b for s, b in pairs if eval_bcq(s, item.query) and not eval_bcq(b, item.query)},
        {},
    )


def _prop_eval_iff_witnesses(item: CorpusItem, rng: random.Random) -> str | None:
    samples = [item.instance.facts, _random_subset(rng, item.instance.facts)]
    return _differ(
        "subsets where evaluation and witness existence disagree",
        {s for s in samples if eval_bcq(s, item.query) != bool(witnesses(s, item.query))},
        set(),
    )


def _prop_endogenous_insertion_monotone(item: CorpusItem, rng: random.Random) -> str | None:
    extra = _fresh_fact(item.instance, rng)
    if extra is None:
        return None
    after = actual_causes(item.instance.with_endogenous(extra), item.query).keys()
    return _differ(f"causes lost by adding endogenous {extra}", item.causes.keys() - after, set())


def _prop_exogenous_relabel_antimonotone(item: CorpusItem, rng: random.Random) -> str | None:
    # Relabelling drops a tuple from the endogenous witness parts, and every
    # minimal hitting set of the shrunk parts is also one of the originals'.
    # Inserting a fresh exogenous tuple can complete a witness and add causes.
    if not item.instance.endogenous:
        return None
    moved = rng.choice(sorted(item.instance.endogenous))
    relabelled = Instance(
        item.instance.schemas,
        item.instance.endogenous - {moved},
        item.instance.exogenous | {moved},
    )
    after = actual_causes(relabelled, item.query).keys()
    gained = after - item.causes.keys()
    return _differ(f"causes gained by relabelling {moved} exogenous", gained, set())


def _prop_responsibility_boundaries(item: CorpusItem, rng: random.Random) -> str | None:
    endo = item.instance.endogenous
    rho = {t: responsibility(item.instance, item.query, t) for t in endo}
    return (
        _differ("rho > 0 vs cause membership", {t: r > 0 for t, r in rho.items()},
                {t: t in item.causes for t in endo})
        or _differ("rho = 1 vs the counterfactual test", {t: r == 1 for t, r in rho.items()},
                   {t: is_counterfactual_cause(item.instance, item.query, t) for t in endo})
        or _differ("rho vs the cause set's", rho, {t: _cause_rho(item, t) for t in endo})
    )


def _prop_s_repairs_rebuilt(item: CorpusItem, rng: random.Random) -> str | None:
    rebuilt = s_repairs_from_causes(item.instance, item.query)
    return _differ("s-repairs vs rebuilt from causes", item.s_removals, rebuilt) or _differ(
        "consistent vs no violation-view causes",
        item.s_removals == {frozenset()},
        not item.violation_causes,
    )


def _prop_cqa_matches_repair_intersection(item: CorpusItem, rng: random.Random) -> str | None:
    facts, causes = item.instance.facts, item.violation_causes
    picked = [rng.choice(sorted(facts))] if facts else []
    return _differ(
        "consistently true via causes vs via repairs",
        {a: a not in causes for a in facts},
        {a: all(a not in r for r in item.s_removals) for a in facts},
    ) or _differ(
        "consistently_true vs the violation-view causes",
        {a: consistently_true(item.instance, item.query, a) for a in picked},
        {a: a not in causes for a in picked},
    )


def _prop_c_repairs_within_s(item: CorpusItem, rng: random.Random) -> str | None:
    c_removals = c_repairs(item.instance, [item.query])
    outside = c_removals - item.s_removals
    return _differ("c-repairs that are not s-repairs", outside, set()) or _differ(
        "distinct c-repair sizes", len({len(r) for r in c_removals}), 1
    )


def _prop_diagnosis_causes_agree(item: CorpusItem, rng: random.Random) -> str | None:
    problem = build_problem(item.instance, item.query)
    endo = item.instance.endogenous

    def by_smallest_diagnosis(t: Fact) -> Fraction:
        smallest = smallest_diagnoses_containing(problem, t)
        return Fraction(1, min(map(len, smallest))) if smallest else Fraction(0)

    via_diagnosis = causes_via_diagnosis(problem)
    return _differ("causes via diagnosis vs direct", via_diagnosis, item.causes) or _differ(
        "rho vs 1/size of the smallest diagnoses containing it",
        {t: _cause_rho(item, t) for t in endo},
        {t: by_smallest_diagnosis(t) for t in endo},
    )


@cache
def _reach_program(base: str) -> DatalogProgram:
    """The transitive closure of a binary relation, asking for a cycle."""
    return parse_program(
        f"reach(X, Y) :- {base}(X, Y).\nreach(X, Y) :- {base}(X, Z), reach(Z, Y).\n"
        "ans() :- reach(X, X)."
    )


def _prop_seminaive_matches_naive(item: CorpusItem, rng: random.Random) -> str | None:
    binary = sorted(s.name for s in item.instance.schemas if s.arity == 2)
    programs = [item.program] + [_reach_program(name) for name in binary[:1]]
    facts = item.instance.facts
    return _differ(
        "semi-naive vs naive models",
        {str(p): evaluate(p, facts) for p in programs},
        {str(p): naive_datalog_model(p, facts) for p in programs},
    )


def _prop_entailment_monotone(item: CorpusItem, rng: random.Random) -> str | None:
    smaller = _random_subset(rng, item.instance.facts)
    return _differ(
        f"facts in the model of {_render(smaller)} but not of the whole instance",
        evaluate(item.program, smaller) - evaluate(item.program, item.instance.facts),
        set(),
    )


def _prop_solutions_valid_and_minimal(item: CorpusItem, rng: random.Random) -> str | None:
    p = item.problem
    solutions = abductive_solutions(p)
    return _differ(
        "solutions not entailing the observations",
        {d for d in solutions if not entails(p.program, p.edb | d, p.obs)},
        set(),
    ) or _differ(
        "solutions still entailing them less one fact",
        {d for d in solutions if any(entails(p.program, p.edb | (d - {h}), p.obs) for h in d)},
        set(),
    )


def _prop_relevant_equal_causes(item: CorpusItem, rng: random.Random) -> str | None:
    causes = datalog_actual_causes(item.program, item.instance)
    relevant = frozenset() if item.problem is None else relevant_hypotheses(item.problem)
    return _differ("program causes vs relevant hypotheses", causes, relevant) or _differ(
        "program causes vs enumeration", causes, item.lattice.causes()
    )


PROPERTIES: dict[str, Property] = {
    "core.witnesses-match-enumeration": _agree(
        "witnesses vs enumeration",
        lambda i: witnesses(i.instance.facts, i.query, i.instance.schemas),
        lambda i: witnesses_by_enumeration(i.instance.facts, i.query),
    ),
    "core.constraint-duality": _prop_constraint_duality,
    "core.eval-monotone": _prop_eval_monotone,
    "core.eval-iff-witnesses": _prop_eval_iff_witnesses,
    "causality.causes-match-enumeration": _agree(
        "causes vs enumeration", lambda i: i.causes, lambda i: i.oracle_causes
    ),
    "causality.engines-agree": _agree(
        "minimal contingency sets vs enumeration",
        lambda i: {t: minimal_contingency_sets(i.instance, i.query, t) for t in i.instance.endogenous},
        lambda i: {t: i.oracle_causes.get(t, frozenset()) for t in i.instance.endogenous},
    ),
    "causality.endogenous-insertion-monotone": _prop_endogenous_insertion_monotone,
    "causality.exogenous-insertion-antimonotone": _prop_exogenous_relabel_antimonotone,
    "causality.responsibility-boundaries": _prop_responsibility_boundaries,
    "repairs.removals-match-enumeration": _agree(
        "s-repair removal sets vs enumeration",
        lambda i: i.s_removals,
        lambda i: s_repair_removals_by_enumeration(i.instance, [i.query]),
    ),
    "repairs.causes-from-repairs-agree": _agree(
        "causes vs via repairs",
        lambda i: i.causes,
        lambda i: causes_from_repairs(i.instance, i.query),
    ),
    "repairs.s-repairs-rebuilt-from-causes": _prop_s_repairs_rebuilt,
    "repairs.c-repairs-rebuilt-from-top-causes": _agree(
        "c-repairs vs rebuilt from the most responsible causes",
        lambda i: c_repairs(i.instance, [i.query]),
        lambda i: c_repairs_from_most_responsible(i.instance, i.query),
    ),
    "repairs.cqa-matches-repair-intersection": _prop_cqa_matches_repair_intersection,
    "repairs.c-repairs-within-s": _prop_c_repairs_within_s,
    "repairs.endogenous-only-filter": _agree(
        "endogenous-only s-repairs vs the s-repairs removing only endogenous facts",
        lambda i: endogenous_s_repairs(i.instance, [i.query]),
        _endogenous_removals,
    ),
    "diagnosis.matches-enumeration": _agree(
        "diagnoses vs enumeration",
        lambda i: i.diagnoses,
        lambda i: diagnoses_by_enumeration(build_problem(i.instance, i.query)),
    ),
    "diagnosis.causes-agree": _prop_diagnosis_causes_agree,
    "diagnosis.repair-bridge": _agree(
        "diagnoses vs the s-repairs removing only endogenous facts",
        lambda i: i.diagnoses,
        _endogenous_removals,
    ),
    "datalog.seminaive-matches-naive": _prop_seminaive_matches_naive,
    "datalog.entailment-monotone": _prop_entailment_monotone,
    "datalog.solutions-match-enumeration": _needs_problem(_agree(
        "solutions vs enumeration",
        lambda i: abductive_solutions(i.problem),
        lambda i: i.lattice.solutions(),
    )),
    "datalog.solutions-valid-and-minimal": _needs_problem(_prop_solutions_valid_and_minimal),
    "datalog.necessary-sets-match-enumeration": _needs_problem(_agree(
        "necessary sets vs enumeration",
        lambda i: necessary_sets(i.problem),
        lambda i: i.lattice.necessary_sets(),
    )),
    "datalog.necessary-sets-equal-diagnoses": _needs_problem(_agree(
        "necessary sets vs diagnoses", lambda i: necessary_sets(i.problem), lambda i: i.diagnoses
    )),
    "datalog.relevant-equal-causes": _prop_relevant_equal_causes,
    "datalog.responsibility-matches-bcq": _agree(
        "responsibility via the program vs via the query",
        lambda i: {t: datalog_responsibility(i.program, i.instance, t) for t in i.instance.endogenous},
        lambda i: {t: responsibility(i.instance, i.query, t) for t in i.instance.endogenous},
    ),
}


def _describe_failure(item: CorpusItem, detail: str) -> str:
    record = {"instance": instance_to_dict(item.instance), "query": str(item.query)}
    return json.dumps({**record, "detail": detail}, sort_keys=True)


def cross_check(seed: int = 1, trials: int = 200, max_size: int = 7) -> list[CheckReport]:
    """Run every property over a seeded random corpus; returns one report
    per property, failures serialized for replay.  Zero trials produce an
    empty report list."""
    if trials <= 0:
        return []
    corpus = build_corpus(seed, trials, max_size)
    reports = []
    for property_id, check in sorted(PROPERTIES.items()):
        rng = random.Random(f"{seed}/{property_id}")
        failures = []
        for item in corpus:
            detail = check(item, rng)
            if detail is not None:
                failures.append(_describe_failure(item, detail))
        reports.append(CheckReport(property_id, len(corpus), tuple(failures)))
    return reports


# ------------------------------------------------------------ fixture mode

def _family(*sets: set[Fact]) -> frozenset[frozenset[Fact]]:
    return frozenset(map(frozenset, sets))


def _failures(*details: str | None) -> list[str]:
    return [d for d in details if d is not None]


def _fixture_demo_values() -> list[str]:
    instance = demo_instance()
    r21, r33 = fact("R", "a2", "a1"), fact("R", "a3", "a3")
    s1, s3 = fact("S", "a1"), fact("S", "a3")
    problem = problem_for_instance(demo_program(), instance)
    cause_set = actual_causes(instance, demo_query())
    return _failures(
        _differ("solutions", abductive_solutions(problem), _family({s1, r21}, {s3, r33})),
        _differ("causes", cause_set.keys(), {r21, r33, s1, s3}),
        _differ(
            "responsibilities other than 1/2",
            {responsibility_of(g) for g in cause_set.values()} - {Fraction(1, 2)},
            set(),
        ),
        _differ("necessary set sizes", {len(n) for n in necessary_sets(problem)}, {2}),
        _differ(
            "repair removals",
            s_repairs(instance, [demo_query()]),
            _family({r21, r33}, {r21, s3}, {s1, r33}, {s1, s3}),
        ),
    )


def _fixture_demo_route_agreement() -> list[str]:
    instance = demo_instance()
    query = demo_query()
    direct = dumps(cause_set_to_list(actual_causes(instance, query)))
    via_repairs = dumps(cause_set_to_list(causes_from_repairs(instance, query)))
    via_diagnosis = dumps(cause_set_to_list(causes_via_diagnosis(build_problem(instance, query))))
    return _failures(
        _differ("serialized causes, direct vs via repairs", direct, via_repairs),
        _differ("serialized causes, direct vs via diagnosis", direct, via_diagnosis),
    )


def _fixture_closure_values() -> list[str]:
    instance = closure_instance()
    program = closure_program()
    eab, ebc = fact("E", "a", "b"), fact("E", "b", "c")
    model = evaluate(program, instance.facts)
    problem = problem_for_instance(program, instance)
    return _failures(
        _differ(
            "derived atoms",
            model - instance.facts,
            {fact("T", "a", "b"), fact("T", "b", "c"), fact("T", "a", "c"), fact("ans")},
        ),
        _differ("solutions", abductive_solutions(problem), _family({eab, ebc})),
        _differ("necessary sets", necessary_sets(problem), _family({eab}, {ebc})),
        _differ("causes", datalog_actual_causes(program, instance), {eab, ebc}),
        *(
            _differ(f"responsibility of {edge}", datalog_responsibility(program, instance, edge), 1)
            for edge in (eab, ebc)
        ),
    )


def fixture_checks() -> list[CheckReport]:
    """Exact-value checks on the built-in fixtures, including byte-identical
    serialization across the three cause-computation routes."""
    return [
        CheckReport("fixtures.demo-exact-values", 1, tuple(_fixture_demo_values())),
        CheckReport("fixtures.demo-route-agreement", 1, tuple(_fixture_demo_route_agreement())),
        CheckReport("fixtures.transitive-closure", 1, tuple(_fixture_closure_values())),
    ]
