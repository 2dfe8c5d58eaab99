"""causelab: causes, responsibilities, repairs, diagnoses and abductive
explanations for query answers over relational instances, with a harness
that cross-checks the equivalences between these notions."""
from .abduction import (
    AbductionProblem,
    NecessarySet,
    abductive_solutions,
    datalog_actual_causes,
    datalog_responsibility,
    necessary_sets,
    problem_for_instance,
    relevant_hypotheses,
)
from .budget import DEFAULT_BUDGET, Meter
from .causality import (
    CauseSet,
    ContingencySet,
    actual_causes,
    is_counterfactual_cause,
    minimal_contingency_sets,
    most_responsible_causes,
    responsibility,
    responsibility_of,
)
from .checks import CheckReport, cross_check, fixture_checks
from .datalog import (
    DatalogProgram,
    DatalogRule,
    entails,
    evaluate,
    ground_derivations,
    minimal_supports,
    rule,
)
from .diagnosis import (
    Diagnosis,
    DiagnosisProblem,
    build_problem,
    causes_via_diagnosis,
    diagnoses_containing,
    minimal_diagnoses,
    smallest_diagnoses_containing,
)
from .errors import BudgetError, CauselabError, DomainError, ParseError, SchemaError
from .model import (
    Atom,
    ConjunctiveQuery,
    DenialConstraint,
    Fact,
    Instance,
    RelationSchema,
    Term,
    Valuation,
    Variable,
    ViolationView,
    Witness,
    atom,
    dc_to_view,
    eval_bcq,
    fact,
    query_to_dc,
    satisfies_dc,
    view_to_query,
    witnesses,
)
from .parsing import (
    parse_denial_constraint,
    parse_denial_constraints,
    parse_ground_atom,
    parse_program,
    parse_query,
)
from .repairs import (
    Repair,
    RemovalSetClass,
    c_repairs,
    c_repairs_from_most_responsible,
    causes_from_repairs,
    consistently_true,
    endogenous_s_repairs,
    removal_sets_containing,
    s_repairs,
    s_repairs_from_causes,
)

__version__ = "0.1.0"
