"""Unit tests for CQ containment and equivalence (Chandra–Merlin)."""

import pytest

from repro.cq.canonical import canonical_database, instantiate_nulls
from repro.cq.evaluation import evaluate, evaluate_naive
from repro.cq.homomorphism import (
    are_equivalent,
    containment_witness,
    find_homomorphism,
    is_contained_in,
)
from repro.cq.parser import parse_query
from repro.errors import TypecheckError
from repro.relational import relation, schema
from repro.workloads import chain_query, edge_schema


@pytest.fixture
def s():
    return schema(
        relation("R", [("a", "T"), ("b", "U")], key=["a"]),
        relation("S", [("c", "U"), ("d", "T")], key=["c"]),
    )


def test_query_contained_in_itself(s):
    q = parse_query("Q(X) :- R(X, Y), S(C, D), Y = C.")
    assert is_contained_in(q, q, s)


def test_more_joins_contained_in_fewer(s):
    tight = parse_query("Q(X) :- R(X, Y), S(C, D), Y = C.")
    loose = parse_query("Q(X) :- R(X, Y).")
    assert is_contained_in(tight, loose, s)
    assert not is_contained_in(loose, tight, s)


def test_constant_selection_contained_in_free(s):
    selected = parse_query("Q(X) :- R(X, Y), Y = U:5.")
    free = parse_query("Q(X) :- R(X, Y).")
    assert is_contained_in(selected, free, s)
    assert not is_contained_in(free, selected, s)


def test_different_constants_incomparable(s):
    q1 = parse_query("Q(X) :- R(X, Y), Y = U:1.")
    q2 = parse_query("Q(X) :- R(X, Y), Y = U:2.")
    assert not is_contained_in(q1, q2, s)
    assert not is_contained_in(q2, q1, s)


def test_redundant_atom_equivalence(s):
    q1 = parse_query("Q(X) :- R(X, Y).")
    q2 = parse_query("Q(X) :- R(X, Y), R(A, B).")
    assert are_equivalent(q1, q2, s)


def test_chain_queries_fold():
    """Chain of length 2 with shared head endpoints: classic folding."""
    s = edge_schema()
    short = chain_query(1)
    long = chain_query(2)
    # Every length-2 path's endpoints include... actually chain(2) ⊆ chain(1)
    # is false and chain(1) ⊆ chain(2) is false; but a cycle-shaped query
    # folds onto its core.  Check both directions are cleanly decided.
    assert not is_contained_in(short, long, s)
    assert not is_contained_in(long, short, s)


def test_cycle_folds_onto_self_loop():
    s = edge_schema()
    loop = parse_query("Q(X) :- E(X, Y), X = Y.")
    cycle2 = parse_query("Q(X) :- E(X, Y), E(Y2, X2), Y = Y2, X = X2.")
    # A self-loop satisfies the 2-cycle pattern.
    assert is_contained_in(loop, cycle2, s)
    assert not is_contained_in(cycle2, loop, s)


def test_unsatisfiable_contained_in_everything(s):
    bottom = parse_query("Q(X) :- R(X, Y), Y = U:1, Y = U:2.")
    top = parse_query("Q(X) :- R(X, Y).")
    assert is_contained_in(bottom, top, s)
    assert not is_contained_in(top, bottom, s)
    assert is_contained_in(bottom, bottom, s)


def test_type_mismatch_raises(s):
    q1 = parse_query("Q(X) :- R(X, Y).")
    q2 = parse_query("Q(Y) :- R(X, Y).")
    with pytest.raises(TypecheckError):
        is_contained_in(q1, q2, s)


def test_containment_witness_maps_head(s):
    tight = parse_query("Q(X) :- R(X, Y), S(C, D), Y = C.")
    loose = parse_query("Q(X2) :- R(X2, Y2).")
    witness = containment_witness(tight, loose, s)
    assert witness is not None
    canonical = canonical_database(tight, s)
    from repro.cq.syntax import Variable

    assert witness[Variable("X2")] == canonical.head_row[0]


def test_matcher_agrees_with_naive_evaluation_oracle(s):
    """Chandra–Merlin through the naive evaluator: a homomorphism exists iff
    ``q2`` on ``q1``'s canonical database returns the canonical head row."""
    pairs = [
        ("Q(X) :- R(X, Y), S(C, D), Y = C.", "Q(X) :- R(X, Y)."),
        ("Q(X) :- R(X, Y).", "Q(X) :- R(X, Y), S(C, D), Y = C."),
        ("Q(X) :- R(X, Y), Y = U:5.", "Q(X) :- R(X, Y)."),
        ("Q(X) :- R(X, Y).", "Q(X) :- R(X, Y), Y = U:5."),
    ]
    for t1, t2 in pairs:
        q1, q2 = parse_query(t1), parse_query(t2)
        canonical = canonical_database(q1, s)
        found = find_homomorphism(q2, canonical)
        oracle = canonical.head_row in evaluate_naive(q2, canonical.instance).rows
        assert (found is not None) == oracle


def test_containment_validated_by_evaluation(s):
    """Semantic cross-check: q1 ⊆ q2 implies q1(d) ⊆ q2(d) on concrete d."""
    from repro.relational import random_instance

    q1 = parse_query("Q(X) :- R(X, Y), S(C, D), Y = C.")
    q2 = parse_query("Q(X) :- R(X, Y).")
    assert is_contained_in(q1, q2, s)
    for seed in range(5):
        inst = random_instance(s, rows_per_relation=6, seed=seed)
        assert evaluate(q1, inst).rows <= evaluate(q2, inst).rows


def test_duplicated_atom_object_removed_one_occurrence_at_a_time():
    """Regression: ``_search`` once dropped *every* occurrence of the chosen
    atom when the same ``Atom`` object appeared twice in the list (identity
    based removal).  Both occurrences must be matched, one per depth."""
    from repro.cq.homomorphism import _search
    from repro.cq.syntax import Atom, Variable
    from repro.relational import DatabaseInstance, Value, relation, schema

    s2 = schema(relation("E", [("a", "T"), ("b", "T")]))
    instance = DatabaseInstance.from_rows(
        s2, {"E": [(Value("T", 1), Value("T", 2))]}
    )
    shared = Atom("E", (Variable("X"), Variable("Y")))
    atoms = [shared, shared]  # the SAME object twice
    result = _search(atoms, instance, {})
    assert result == {Variable("X"): Value("T", 1), Variable("Y"): Value("T", 2)}


def test_duplicated_atom_object_without_index_or_ordering():
    """Same regression with a pre-bound variable and two candidate rows."""
    from repro.cq.homomorphism import _search
    from repro.cq.syntax import Atom, Variable
    from repro.relational import DatabaseInstance, Value, relation, schema

    s2 = schema(relation("E", [("a", "T"), ("b", "T")]))
    instance = DatabaseInstance.from_rows(
        s2,
        {"E": [(Value("T", 1), Value("T", 2)), (Value("T", 2), Value("T", 3))]},
    )
    shared = Atom("E", (Variable("X"), Variable("Y")))
    result = _search([shared, shared], instance, {Variable("X"): Value("T", 2)})
    assert result == {Variable("X"): Value("T", 2), Variable("Y"): Value("T", 3)}


def test_matcher_assignment_replays_over_canonical_rows(s):
    pairs = [
        ("Q(X) :- R(X, Y), S(C, D), Y = C.", "Q(X) :- R(X, Y)."),
        ("Q(X) :- R(X, Y).", "Q(X) :- R(X, Y), S(C, D), Y = C."),
        ("Q(X) :- R(X, Y), Y = U:5.", "Q(X) :- R(X, Y)."),
        ("Q(X) :- R(X, Y), S(C, D), Y = C.", "Q(X) :- R(X, Y), S(C, D)."),
    ]
    for t1, t2 in pairs:
        q1, q2 = parse_query(t1), parse_query(t2)
        canonical = canonical_database(q1, s)
        found = find_homomorphism(q2, canonical)
        if found is not None:
            # A genuine homomorphism: replay it over the canonical rows.
            from repro.cq.equality import substitute_representatives
            from repro.cq.syntax import Constant

            rewritten, _ = substitute_representatives(q2)
            for atom in rewritten.body:
                image = tuple(
                    t.value if isinstance(t, Constant) else found[t]
                    for t in atom.terms
                )
                assert image in canonical.instance.relation(atom.relation)


def test_non_containment_has_concrete_witness(s):
    """If q1 ⊄ q2 the instantiated canonical database is a witness."""
    q1 = parse_query("Q(X) :- R(X, Y).")
    q2 = parse_query("Q(X) :- R(X, Y), S(C, D), Y = C.")
    assert not is_contained_in(q1, q2, s)
    canonical = canonical_database(q1, s)
    concrete = instantiate_nulls(canonical.instance)
    r1 = evaluate(q1, concrete)
    r2 = evaluate(q2, concrete)
    assert not r1.rows <= r2.rows
