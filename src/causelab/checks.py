"""Cross-check harness: runs every documented equivalence between the
causality, repair, diagnosis and abduction routes over seeded random
instances, plus exact-value checks on the built-in demo fixtures.

Failures are data, not errors: each report carries serialized
counterexamples for replay.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Callable, Iterable

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
    actual_causes,
    is_counterfactual_cause,
    minimal_contingency_sets,
    responsibility,
    responsibility_of,
)
from .datalog import DatalogProgram, DatalogRule, entails, evaluate
from .diagnosis import build_problem, causes_via_diagnosis, minimal_diagnoses
from .errors import DomainError
from .model import (
    Atom,
    ConjunctiveQuery,
    Fact,
    Instance,
    RelationSchema,
    Variable,
    dc_to_view,
    eval_bcq,
    query_to_dc,
    witnesses,
)
from .oracles import (
    causes_by_enumeration,
    datalog_causes_by_enumeration,
    diagnoses_by_enumeration,
    naive_datalog_model,
    necessary_sets_by_enumeration,
    s_repair_removals_by_enumeration,
    solutions_by_enumeration,
    witnesses_by_enumeration,
)
from .repairs import (
    c_repairs,
    c_repairs_from_most_responsible,
    causes_from_repairs,
    consistently_true,
    endogenous_s_repairs,
    s_repairs,
    s_repairs_from_causes,
)
from .serialize import cause_set_to_list, dumps, instance_to_dict

__all__ = [
    "CheckReport",
    "CorpusItem",
    "build_corpus",
    "cross_check",
    "fixture_checks",
    "PROPERTIES",
    "demo_instance",
    "demo_query",
    "demo_constraint",
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
    """One random instance and query.  ``memo`` holds the work units the
    properties share, so they live exactly as long as the corpus."""

    instance: Instance
    query: ConjunctiveQuery
    memo: dict = field(default_factory=dict, compare=False, repr=False)


# ---------------------------------------------------------------- fixtures

def demo_instance() -> Instance:
    """Six endogenous facts over R/2 and S/1; the running demo database."""
    return Instance.infer(
        endogenous=[
            Fact("R", ("a1", "a4")),
            Fact("R", ("a2", "a1")),
            Fact("R", ("a3", "a3")),
            Fact("S", ("a1",)),
            Fact("S", ("a2",)),
            Fact("S", ("a3",)),
        ]
    )


def demo_query() -> ConjunctiveQuery:
    x, y = Variable("X"), Variable("Y")
    return ConjunctiveQuery((Atom("R", (x, y)), Atom("S", (y,))))


def demo_constraint():
    return query_to_dc(demo_query())


def demo_program() -> DatalogProgram:
    x, y = Variable("X"), Variable("Y")
    return DatalogProgram(
        (DatalogRule(Atom("ans", ()), (Atom("R", (x, y)), Atom("S", (y,)))),)
    )


def closure_instance() -> Instance:
    """Two endogenous edges a->b->c for the recursive-closure fixture."""
    return Instance.infer(endogenous=[Fact("E", ("a", "b")), Fact("E", ("b", "c"))])


def closure_program() -> DatalogProgram:
    x, y, z = Variable("X"), Variable("Y"), Variable("Z")
    return DatalogProgram(
        (
            DatalogRule(Atom("T", (x, y)), (Atom("E", (x, y)),)),
            DatalogRule(Atom("T", (x, y)), (Atom("E", (x, z)), Atom("T", (z, y)))),
            DatalogRule(Atom("ans", ()), (Atom("T", ("a", "c")),)),
        )
    )


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
    return frozenset(f for f in facts if rng.random() < 0.5)


def _fresh_fact(instance: Instance, rng: random.Random) -> Fact | None:
    constants = sorted({a for f in instance.facts for a in f.args} | set("abcdef"))
    schemas = sorted(instance.schemas)
    for _ in range(40):
        s = rng.choice(schemas)
        candidate = Fact(s.name, tuple(rng.choice(constants) for _ in range(s.arity)))
        if candidate not in instance.facts:
            return candidate
    return None


# ----------------------------------------------------- memoized work units

def _per_item(compute: Callable[[Instance, ConjunctiveQuery], object]):
    """Compute once per corpus item, memoized on the item itself."""

    def get(item: CorpusItem):
        if compute not in item.memo:
            item.memo[compute] = compute(item.instance, item.query)
        return item.memo[compute]

    return get


@_per_item
def _fast_causes(instance: Instance, query: ConjunctiveQuery):
    return actual_causes(instance, query)


@_per_item
def _oracle_causes(instance: Instance, query: ConjunctiveQuery):
    return causes_by_enumeration(instance, query)


@_per_item
def _fast_witnesses(instance: Instance, query: ConjunctiveQuery):
    return witnesses(instance.facts, query, instance.schemas)


@_per_item
def _fast_s_removals(instance: Instance, query: ConjunctiveQuery):
    return s_repairs(instance, [query_to_dc(query)])


@_per_item
def _fast_diagnoses(instance: Instance, query: ConjunctiveQuery):
    return minimal_diagnoses(build_problem(instance, query))


def _single_rule_program(query: ConjunctiveQuery) -> DatalogProgram:
    return DatalogProgram((DatalogRule(Atom("ans", ()), query.atoms),))


def _sorted_strs(values: Iterable) -> list[str]:
    return sorted(str(v) for v in values)


# ----------------------------------------------------------- the properties

def _prop_witnesses_match_enumeration(item: CorpusItem, rng: random.Random) -> str | None:
    fast = _fast_witnesses(item)
    slow = witnesses_by_enumeration(item.instance.facts, item.query)
    if fast != slow:
        return f"witnesses differ: fast={_sorted_strs(map(set, fast))} slow={_sorted_strs(map(set, slow))}"
    return None


def _prop_constraint_duality(item: CorpusItem, rng: random.Random) -> str | None:
    from .model import satisfies_dc

    constraint = query_to_dc(item.query)
    view = dc_to_view(constraint)
    samples = [item.instance.facts] + [
        _random_subset(rng, item.instance.facts) for _ in range(2)
    ]
    for sample in samples:
        if satisfies_dc(sample, constraint) == eval_bcq(sample, view):
            return f"duality violated on subset {_sorted_strs(sample)}"
    return None


def _prop_eval_monotone(item: CorpusItem, rng: random.Random) -> str | None:
    for _ in range(3):
        bigger = _random_subset(rng, item.instance.facts)
        smaller = _random_subset(rng, bigger)
        if eval_bcq(smaller, item.query) and not eval_bcq(bigger, item.query):
            return f"evaluation is not monotone between {_sorted_strs(smaller)} and {_sorted_strs(bigger)}"
    return None


def _prop_eval_iff_witnesses(item: CorpusItem, rng: random.Random) -> str | None:
    for sample in (item.instance.facts, _random_subset(rng, item.instance.facts)):
        holds = eval_bcq(sample, item.query)
        has_witness = bool(witnesses(sample, item.query))
        if holds != has_witness:
            return f"eval={holds} but witnesses nonempty={has_witness}"
    return None


def _prop_causes_match_enumeration(item: CorpusItem, rng: random.Random) -> str | None:
    fast = _fast_causes(item)
    slow = _oracle_causes(item)
    if fast != slow:
        return f"cause sets differ: fast={_sorted_strs(fast)} slow={_sorted_strs(slow)}"
    return None


def _prop_engines_agree(item: CorpusItem, rng: random.Random) -> str | None:
    oracle = _oracle_causes(item)
    for t in sorted(item.instance.endogenous):
        if minimal_contingency_sets(item.instance, item.query, t) != oracle.get(t, frozenset()):
            return f"minimal contingency sets of {t} differ from the enumeration oracle's"
    return None


def _prop_endogenous_insertion_monotone(item: CorpusItem, rng: random.Random) -> str | None:
    extra = _fresh_fact(item.instance, rng)
    if extra is None:
        return None
    before = _fast_causes(item).keys()
    grown = item.instance.with_endogenous(extra)
    after = actual_causes(grown, item.query).keys()
    if not before <= after:
        lost = _sorted_strs(before - after)
        return f"adding endogenous {extra} removed causes {lost}"
    return None


def _prop_exogenous_relabel_antimonotone(item: CorpusItem, rng: random.Random) -> str | None:
    # Relabelling drops a tuple from the endogenous witness parts, and every
    # minimal hitting set of the shrunk parts is also one of the originals'.
    # Inserting a fresh exogenous tuple can complete a witness and add causes.
    if not item.instance.endogenous:
        return None
    moved = rng.choice(sorted(item.instance.endogenous))
    before = _fast_causes(item).keys()
    relabelled = Instance(
        item.instance.schemas,
        item.instance.endogenous - {moved},
        item.instance.exogenous | {moved},
    )
    after = actual_causes(relabelled, item.query).keys()
    if not after <= before:
        gained = _sorted_strs(after - before)
        return f"relabelling {moved} as exogenous introduced causes {gained}"
    return None


def _prop_responsibility_boundaries(item: CorpusItem, rng: random.Random) -> str | None:
    cause_set = _fast_causes(item)
    for t in sorted(item.instance.endogenous):
        rho = responsibility(item.instance, item.query, t)
        if (rho > 0) != (t in cause_set):
            return f"rho({t})={rho} disagrees with cause membership"
        if (rho == 1) != is_counterfactual_cause(item.instance, item.query, t):
            return f"rho({t})={rho} disagrees with the counterfactual test"
        if rho != responsibility_of(cause_set.get(t, ())):
            return f"standalone and cause-set responsibilities differ for {t}"
    return None


def _prop_removals_match_enumeration(item: CorpusItem, rng: random.Random) -> str | None:
    fast = _fast_s_removals(item)
    slow = s_repair_removals_by_enumeration(item.instance, [query_to_dc(item.query)])
    if fast != slow:
        return f"repair removal sets differ: fast={_sorted_strs(map(set, fast))} slow={_sorted_strs(map(set, slow))}"
    return None


def _prop_causes_from_repairs_agree(item: CorpusItem, rng: random.Random) -> str | None:
    direct = _fast_causes(item)
    via_repairs = causes_from_repairs(item.instance, item.query)
    if direct != via_repairs:
        return "cause set via repairs differs from the direct computation"
    return None


def _prop_s_repairs_rebuilt(item: CorpusItem, rng: random.Random) -> str | None:
    constraint = query_to_dc(item.query)
    direct = _fast_s_removals(item)
    rebuilt = s_repairs_from_causes(item.instance, constraint)
    if direct != rebuilt:
        return f"rebuilt s-repairs differ: direct={_sorted_strs(map(set, direct))} rebuilt={_sorted_strs(map(set, rebuilt))}"
    consistent = direct == frozenset({frozenset()})
    no_causes = not actual_causes(item.instance.all_endogenous(), dc_to_view(constraint))
    if consistent != no_causes:
        return "consistency does not match emptiness of the violation-view cause set"
    return None


def _prop_c_repairs_rebuilt(item: CorpusItem, rng: random.Random) -> str | None:
    constraint = query_to_dc(item.query)
    direct = c_repairs(item.instance, [constraint])
    rebuilt = c_repairs_from_most_responsible(item.instance, constraint)
    if direct != rebuilt:
        return f"rebuilt c-repairs differ: direct={_sorted_strs(map(set, direct))} rebuilt={_sorted_strs(map(set, rebuilt))}"
    return None


def _prop_cqa_matches_repair_intersection(item: CorpusItem, rng: random.Random) -> str | None:
    constraint = query_to_dc(item.query)
    removals = _fast_s_removals(item)
    for a in sorted(item.instance.facts):
        via_causes = consistently_true(item.instance, constraint, a)
        in_all = all(a not in r for r in removals)
        if via_causes != in_all:
            return f"consistent answer for {a}: via causes {via_causes}, via repairs {in_all}"
    return None


def _prop_c_repairs_within_s(item: CorpusItem, rng: random.Random) -> str | None:
    constraint = query_to_dc(item.query)
    s_removals = _fast_s_removals(item)
    c_removals = c_repairs(item.instance, [constraint])
    if not c_removals <= s_removals:
        return "a cardinality repair is not a subset repair"
    if len({len(r) for r in c_removals}) != 1:
        return "cardinality repair removal sets differ in size"
    return None


def _prop_endogenous_repairs_filter(item: CorpusItem, rng: random.Random) -> str | None:
    constraint = query_to_dc(item.query)
    endo_only = endogenous_s_repairs(item.instance, [constraint])
    expected = {r for r in _fast_s_removals(item) if r <= item.instance.endogenous}
    if endo_only != expected:
        return "endogenous-only repairs are not the endogenous-removal subset"
    return None


def _prop_diagnoses_match_enumeration(item: CorpusItem, rng: random.Random) -> str | None:
    problem = build_problem(item.instance, item.query)
    fast = _fast_diagnoses(item)
    slow = diagnoses_by_enumeration(problem)
    if fast != slow:
        return f"diagnoses differ: fast={_sorted_strs(map(set, fast))} slow={_sorted_strs(map(set, slow))}"
    return None


def _prop_diagnosis_causes_agree(item: CorpusItem, rng: random.Random) -> str | None:
    problem = build_problem(item.instance, item.query)
    via_diagnosis = causes_via_diagnosis(problem)
    direct = _fast_causes(item)
    if via_diagnosis != direct:
        return "cause set via diagnosis differs from the direct computation"
    from .diagnosis import smallest_diagnoses_containing

    for t in sorted(item.instance.endogenous):
        rho = responsibility_of(direct.get(t, ()))
        smallest = smallest_diagnoses_containing(problem, t)
        if (rho == 0) != (not smallest):
            return f"rho({t})={rho} disagrees with smallest-diagnosis emptiness"
        if smallest and rho != Fraction(1, min(len(d) for d in smallest)):
            return f"rho({t})={rho} does not match the smallest diagnosis size"
    return None


def _prop_diagnosis_repair_bridge(item: CorpusItem, rng: random.Random) -> str | None:
    removals = _fast_s_removals(item)
    endogenous_removals = frozenset(r for r in removals if r <= item.instance.endogenous)
    diagnoses = _fast_diagnoses(item)
    if diagnoses != endogenous_removals:
        return "diagnoses are not the endogenous repair removal sets"
    return None


def _prop_seminaive_matches_naive(item: CorpusItem, rng: random.Random) -> str | None:
    programs = [_single_rule_program(item.query)]
    binary = sorted(s.name for s in item.instance.schemas if s.arity == 2)
    if binary:
        x, y, z = Variable("X"), Variable("Y"), Variable("Z")
        base = binary[0]
        programs.append(
            DatalogProgram(
                (
                    DatalogRule(Atom("reach", (x, y)), (Atom(base, (x, y)),)),
                    DatalogRule(
                        Atom("reach", (x, y)), (Atom(base, (x, z)), Atom("reach", (z, y)))
                    ),
                    DatalogRule(Atom("ans", ()), (Atom("reach", (x, x)),)),
                )
            )
        )
    for program in programs:
        if evaluate(program, item.instance.facts) != naive_datalog_model(
            program, item.instance.facts
        ):
            return f"semi-naive and naive models differ for program: {program}"
    return None


def _prop_entailment_monotone(item: CorpusItem, rng: random.Random) -> str | None:
    program = _single_rule_program(item.query)
    bigger = item.instance.facts
    smaller = _random_subset(rng, bigger)
    if not evaluate(program, smaller) <= evaluate(program, bigger):
        return "the model of a subset is not contained in the model of the superset"
    return None


@_per_item
def _canonical_problem(instance: Instance, query: ConjunctiveQuery) -> AbductionProblem | None:
    program = _single_rule_program(query)
    if not entails(program, instance.facts, {program.answer_atom()}):
        try:
            problem_for_instance(program, instance)
        except DomainError:
            return None
        raise AssertionError("construction accepted an unentailed observation")
    return problem_for_instance(program, instance)


def _prop_solutions_match_enumeration(item: CorpusItem, rng: random.Random) -> str | None:
    problem = _canonical_problem(item)
    if problem is None:
        return None
    fast = abductive_solutions(problem)
    slow = solutions_by_enumeration(problem)
    if fast != slow:
        return f"solutions differ: fast={_sorted_strs(map(set, fast))} slow={_sorted_strs(map(set, slow))}"
    return None


def _prop_solutions_valid_and_minimal(item: CorpusItem, rng: random.Random) -> str | None:
    problem = _canonical_problem(item)
    if problem is None:
        return None
    for delta in abductive_solutions(problem):
        if not entails(problem.program, problem.edb | delta, problem.obs):
            return f"solution {_sorted_strs(delta)} does not entail the observations"
        for h in delta:
            if entails(problem.program, problem.edb | (delta - {h}), problem.obs):
                return f"solution {_sorted_strs(delta)} is not minimal at {h}"
    return None


def _prop_necessary_match_enumeration(item: CorpusItem, rng: random.Random) -> str | None:
    problem = _canonical_problem(item)
    if problem is None:
        return None
    fast = necessary_sets(problem)
    slow = necessary_sets_by_enumeration(problem)
    if fast != slow:
        return f"necessary sets differ: fast={_sorted_strs(map(set, fast))} slow={_sorted_strs(map(set, slow))}"
    return None


def _prop_necessary_equal_diagnoses(item: CorpusItem, rng: random.Random) -> str | None:
    problem = _canonical_problem(item)
    if problem is None:
        return None
    diagnoses = _fast_diagnoses(item)
    if necessary_sets(problem) != diagnoses:
        return "necessary hypothesis sets differ from the minimal diagnoses"
    return None


def _prop_relevant_equal_causes(item: CorpusItem, rng: random.Random) -> str | None:
    program = _single_rule_program(item.query)
    causes = datalog_actual_causes(program, item.instance)
    problem = _canonical_problem(item)
    relevant = (
        frozenset() if problem is None else relevant_hypotheses(problem)
    )
    if causes != relevant:
        return f"relevant hypotheses {_sorted_strs(relevant)} differ from causes {_sorted_strs(causes)}"
    oracle = datalog_causes_by_enumeration(program, item.instance)
    if causes != oracle:
        return f"program causes {_sorted_strs(causes)} differ from the oracle's {_sorted_strs(oracle)}"
    return None


def _prop_responsibility_matches_bcq(item: CorpusItem, rng: random.Random) -> str | None:
    program = _single_rule_program(item.query)
    for t in sorted(item.instance.endogenous):
        via_program = datalog_responsibility(program, item.instance, t)
        via_query = responsibility(item.instance, item.query, t)
        if via_program != via_query:
            return f"responsibilities differ for {t}: program {via_program}, query {via_query}"
    return None


PROPERTIES: dict[str, Callable[[CorpusItem, random.Random], str | None]] = {
    "core.witnesses-match-enumeration": _prop_witnesses_match_enumeration,
    "core.constraint-duality": _prop_constraint_duality,
    "core.eval-monotone": _prop_eval_monotone,
    "core.eval-iff-witnesses": _prop_eval_iff_witnesses,
    "causality.causes-match-enumeration": _prop_causes_match_enumeration,
    "causality.engines-agree": _prop_engines_agree,
    "causality.endogenous-insertion-monotone": _prop_endogenous_insertion_monotone,
    "causality.exogenous-insertion-antimonotone": _prop_exogenous_relabel_antimonotone,
    "causality.responsibility-boundaries": _prop_responsibility_boundaries,
    "repairs.removals-match-enumeration": _prop_removals_match_enumeration,
    "repairs.causes-from-repairs-agree": _prop_causes_from_repairs_agree,
    "repairs.s-repairs-rebuilt-from-causes": _prop_s_repairs_rebuilt,
    "repairs.c-repairs-rebuilt-from-top-causes": _prop_c_repairs_rebuilt,
    "repairs.cqa-matches-repair-intersection": _prop_cqa_matches_repair_intersection,
    "repairs.c-repairs-within-s": _prop_c_repairs_within_s,
    "repairs.endogenous-only-filter": _prop_endogenous_repairs_filter,
    "diagnosis.matches-enumeration": _prop_diagnoses_match_enumeration,
    "diagnosis.causes-agree": _prop_diagnosis_causes_agree,
    "diagnosis.repair-bridge": _prop_diagnosis_repair_bridge,
    "datalog.seminaive-matches-naive": _prop_seminaive_matches_naive,
    "datalog.entailment-monotone": _prop_entailment_monotone,
    "datalog.solutions-match-enumeration": _prop_solutions_match_enumeration,
    "datalog.solutions-valid-and-minimal": _prop_solutions_valid_and_minimal,
    "datalog.necessary-sets-match-enumeration": _prop_necessary_match_enumeration,
    "datalog.necessary-sets-equal-diagnoses": _prop_necessary_equal_diagnoses,
    "datalog.relevant-equal-causes": _prop_relevant_equal_causes,
    "datalog.responsibility-matches-bcq": _prop_responsibility_matches_bcq,
}


def _describe_failure(item: CorpusItem, detail: str) -> str:
    return json.dumps(
        {
            "instance": instance_to_dict(item.instance),
            "query": str(item.query),
            "detail": detail,
        },
        sort_keys=True,
    )


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

def _fset(*facts: Fact) -> frozenset[Fact]:
    return frozenset(facts)


def _fixture_demo_values() -> list[str]:
    failures = []
    instance = demo_instance()
    query = demo_query()
    r21 = Fact("R", ("a2", "a1"))
    r33 = Fact("R", ("a3", "a3"))
    s1 = Fact("S", ("a1",))
    s3 = Fact("S", ("a3",))

    expected_solutions = frozenset({_fset(s1, r21), _fset(s3, r33)})
    problem = problem_for_instance(demo_program(), instance)
    solutions = abductive_solutions(problem)
    if solutions != expected_solutions:
        failures.append(f"solutions: {_sorted_strs(map(set, solutions))}")

    cause_set = actual_causes(instance, query)
    if cause_set.keys() != _fset(r21, r33, s1, s3):
        failures.append(f"causes: {_sorted_strs(cause_set)}")
    if any(responsibility_of(g) != Fraction(1, 2) for g in cause_set.values()):
        failures.append("responsibilities are not uniformly 1/2")

    necessary = necessary_sets(problem)
    if {len(n) for n in necessary} != {2}:
        failures.append(f"necessary set sizes: {sorted(len(n) for n in necessary)}")

    expected_removals = frozenset(
        {_fset(r21, r33), _fset(r21, s3), _fset(s1, r33), _fset(s1, s3)}
    )
    removals = s_repairs(instance, [demo_constraint()])
    if removals != expected_removals:
        failures.append(f"repair removals: {_sorted_strs(map(set, removals))}")
    return failures


def _fixture_demo_route_agreement() -> list[str]:
    instance = demo_instance()
    query = demo_query()
    direct = dumps(cause_set_to_list(actual_causes(instance, query)))
    via_repairs = dumps(cause_set_to_list(causes_from_repairs(instance, query)))
    via_diagnosis = dumps(
        cause_set_to_list(causes_via_diagnosis(build_problem(instance, query)))
    )
    failures = []
    if direct != via_repairs:
        failures.append("repair-route serialization differs from the direct one")
    if direct != via_diagnosis:
        failures.append("diagnosis-route serialization differs from the direct one")
    return failures


def _fixture_closure_values() -> list[str]:
    failures = []
    instance = closure_instance()
    program = closure_program()
    eab = Fact("E", ("a", "b"))
    ebc = Fact("E", ("b", "c"))

    model = evaluate(program, instance.facts)
    derived = model - instance.facts
    expected_derived = frozenset(
        {Fact("T", ("a", "b")), Fact("T", ("b", "c")), Fact("T", ("a", "c")), Fact("ans", ())}
    )
    if derived != expected_derived:
        failures.append(f"derived atoms: {_sorted_strs(derived)}")

    problem = problem_for_instance(program, instance)
    if abductive_solutions(problem) != frozenset({_fset(eab, ebc)}):
        failures.append("solutions are not the single edge pair")
    if necessary_sets(problem) != frozenset({_fset(eab), _fset(ebc)}):
        failures.append("necessary sets are not the single edges")
    if datalog_actual_causes(program, instance) != _fset(eab, ebc):
        failures.append("causes are not the two edges")
    for edge in (eab, ebc):
        if datalog_responsibility(program, instance, edge) != Fraction(1):
            failures.append(f"responsibility of {edge} is not 1")
    return failures


def fixture_checks() -> list[CheckReport]:
    """Exact-value checks on the built-in fixtures, including byte-identical
    serialization across the three cause-computation routes."""
    return [
        CheckReport("fixtures.demo-exact-values", 1, tuple(_fixture_demo_values())),
        CheckReport("fixtures.demo-route-agreement", 1, tuple(_fixture_demo_route_agreement())),
        CheckReport("fixtures.transitive-closure", 1, tuple(_fixture_closure_values())),
    ]
