"""Conjunctive query engine: syntax, typing, evaluation, containment, chase.

Implements the paper's query language — conjunctive relational algebra
queries with equality selections, in the restricted Datalog syntax of §2 —
together with the decision procedures the results rest on: Chandra–Merlin
containment, containment under dependencies via the chase, ij-saturation
and product queries (Lemmas 1–2), the receives analysis, query composition
by unfolding, and conversions to and from relational algebra trees.
"""

from repro.cq.syntax import (
    Atom,
    ConjunctiveQuery,
    Constant,
    Equality,
    Term,
    Variable,
    atom,
    is_constant,
    is_variable,
    query,
)
from repro.cq.parser import format_query, parse_queries, parse_query
from repro.cq.equality import (
    EqualityStructure,
    equality_structure,
    induced_equalities,
    substitute_representatives,
)
from repro.cq.typecheck import (
    class_types_consistent,
    head_type,
    infer_types,
    is_well_typed,
    typecheck_view,
)
from repro.cq.backends import Backend, compile_plan
from repro.cq.evaluation import evaluate, evaluate_naive, synthesize_view_schema
from repro.cq.canonical import (
    CanonicalDatabase,
    canonical_database,
    instantiate_nulls,
    is_null,
    null_value,
)
from repro.cq.homomorphism import (
    are_equivalent,
    containment_witness,
    find_homomorphism,
    find_homomorphism_naive,
    is_contained_in,
)
from repro.cq.minimize import is_minimal, minimize
from repro.cq.saturation import (
    ClassifiedCondition,
    ConditionKind,
    classify_conditions,
    has_only_identity_joins,
    is_ij_saturated,
    is_product_query,
    lemma2_hat,
    saturate,
    to_product_query,
)
from repro.cq.receives import MappingReceives, ReceiveAnalysis, analyze_view, analyze_views
from repro.cq.chase import (
    ChaseResult,
    FDEgd,
    chase,
    chase_egds,
    egd_of_fd,
    egd_of_key,
    egds_of_schema,
    satisfies_egds,
    weakly_acyclic,
)
from repro.cq.containment_deps import (
    are_equivalent_under,
    are_equivalent_under_keys,
    chased_canonical,
    is_contained_under,
    is_contained_under_keys,
)
from repro.cq.composition import compose_views, identity_view, unfold
from repro.cq.certain import certain_answers, possible_answers
from repro.cq.hypergraph import (
    QueryStatistics,
    hyperedges,
    is_alpha_acyclic,
    join_graph,
    join_tree,
    query_statistics,
)
from repro.cq.ucq import (
    UnionQuery,
    cq_contained_in_union,
    evaluate_union,
    minimize_union,
    union_contained_in,
    unions_equivalent,
)

__all__ = [
    "Atom",
    "Backend",
    "CanonicalDatabase",
    "ChaseResult",
    "ClassifiedCondition",
    "ConditionKind",
    "ConjunctiveQuery",
    "Constant",
    "Equality",
    "EqualityStructure",
    "FDEgd",
    "MappingReceives",
    "QueryStatistics",
    "ReceiveAnalysis",
    "Term",
    "UnionQuery",
    "Variable",
    "analyze_view",
    "analyze_views",
    "are_equivalent",
    "are_equivalent_under",
    "are_equivalent_under_keys",
    "atom",
    "canonical_database",
    "compile_plan",
    "certain_answers",
    "chase",
    "chase_egds",
    "chased_canonical",
    "class_types_consistent",
    "classify_conditions",
    "compose_views",
    "containment_witness",
    "cq_contained_in_union",
    "egd_of_fd",
    "evaluate_union",
    "minimize_union",
    "union_contained_in",
    "unions_equivalent",
    "egd_of_key",
    "egds_of_schema",
    "equality_structure",
    "evaluate",
    "evaluate_naive",
    "find_homomorphism",
    "find_homomorphism_naive",
    "format_query",
    "has_only_identity_joins",
    "head_type",
    "hyperedges",
    "is_alpha_acyclic",
    "join_graph",
    "query_statistics",
    "identity_view",
    "induced_equalities",
    "infer_types",
    "instantiate_nulls",
    "is_constant",
    "is_contained_in",
    "is_contained_under",
    "is_contained_under_keys",
    "is_ij_saturated",
    "is_minimal",
    "is_null",
    "is_product_query",
    "is_variable",
    "is_well_typed",
    "join_tree",
    "lemma2_hat",
    "minimize",
    "null_value",
    "parse_queries",
    "parse_query",
    "possible_answers",
    "query",
    "satisfies_egds",
    "saturate",
    "substitute_representatives",
    "synthesize_view_schema",
    "to_product_query",
    "typecheck_view",
    "unfold",
    "weakly_acyclic",
]
