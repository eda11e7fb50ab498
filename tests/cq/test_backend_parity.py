"""Differential parity suite for the evaluation backends.

The production backend must return row-identical answers to the naive
enumerator, the oracle, on every query/instance pair.  The families
below cover the shapes that have historically disagreed: acyclic
(chain/star) vs cyclic queries, constants in body positions, repeated
relation occurrences, empty relations, small versions of each
``query-engine`` benchmark shape, and the plan corner cases of the
semijoin reducer and of early projection (cross products, repeated head
variables, constant-only atoms).  The last section pins the reducer to
:func:`repro.cq.hypergraph.is_alpha_acyclic`.
"""

import pytest

from repro.cq.backends import IndexedBackend, NaiveBackend
from repro.cq.backends.base import synthesize_view_schema
from repro.cq.backends.plan import compile_plan
from repro.cq.evaluation import evaluate
from repro.cq.hypergraph import is_alpha_acyclic
from repro.cq.parser import parse_query
from repro.cq.syntax import Atom, ConjunctiveQuery, Constant, Variable
from repro.relational import DatabaseInstance, Value, random_instance
from repro.workloads import (
    chain_query,
    cycle_query,
    edge_schema,
    random_graph_instance,
    random_identity_join_query,
    random_query,
    star_join_instance,
    star_query,
)
from repro.workloads.schema_gen import random_keyed_schema


def assert_parity(query, instance):
    """Both backends and the dispatcher produce the oracle's rows."""
    view_schema = synthesize_view_schema(query, instance)
    oracle = NaiveBackend().evaluate(query, instance, view_schema).rows
    direct = IndexedBackend().evaluate(query, instance, view_schema)
    assert direct.rows == oracle, "the indexed backend disagrees with naive"
    dispatched = evaluate(query, instance, view_schema)
    assert dispatched.rows == oracle, "evaluate disagrees with naive"
    return oracle


@pytest.mark.parametrize("length", [1, 2, 4])
def test_chain_queries(length):
    inst = random_graph_instance(nodes=12, edges=40, seed=length)
    q = chain_query(length)
    assert is_alpha_acyclic(q)
    assert_parity(q, inst)


@pytest.mark.parametrize("rays", [1, 3, 5])
def test_star_queries(rays):
    inst = random_graph_instance(nodes=10, edges=35, seed=rays)
    q = star_query(rays)
    assert_parity(q, inst)


@pytest.mark.parametrize("length", [3, 4, 5])
def test_cycle_queries(length):
    inst = random_graph_instance(nodes=8, edges=28, seed=length)
    q = cycle_query(length)
    assert not is_alpha_acyclic(q)
    assert_parity(q, inst)


def test_triangle_join_with_projection():
    # A cyclic query whose head exports only part of the triangle: the
    # middle variable is dropped after the step that last uses it.
    inst = random_graph_instance(nodes=7, edges=24, seed=11)
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    q = ConjunctiveQuery(
        Atom("Q", (x, z)),
        [Atom("E", (x, y)), Atom("E", (y, z)), Atom("E", (z, x))],
    )
    assert not is_alpha_acyclic(q)
    assert_parity(q, inst)


@pytest.mark.parametrize("seed", range(12))
def test_random_queries(seed):
    schema = random_keyed_schema(seed, ["A", "B"], n_relations=2, max_arity=3)
    q = random_query(schema, seed=seed, max_atoms=3)
    inst = random_instance(schema, rows_per_relation=5, seed=seed)
    assert_parity(q, inst)


@pytest.mark.parametrize("seed", range(8))
def test_random_identity_join_queries(seed):
    # Repeated relation occurrences with same-column joins (Lemma 2 class).
    schema = random_keyed_schema(seed, ["A"], n_relations=1, max_arity=3)
    q = random_identity_join_query(schema, seed=seed, max_atoms=3)
    inst = random_instance(schema, rows_per_relation=4, seed=seed)
    assert_parity(q, inst)


@pytest.mark.parametrize("token", [0, 1, 99])
def test_queries_with_constants(token):
    inst = random_graph_instance(nodes=6, edges=20, seed=token)
    c = Constant(Value("Node", token))
    x, y = Variable("x"), Variable("y")
    q = ConjunctiveQuery(
        Atom("Q", (x, y)), [Atom("E", (c, x)), Atom("E", (x, y))]
    )
    assert_parity(q, inst)


def test_constant_in_head():
    inst = random_graph_instance(nodes=6, edges=18, seed=2)
    c = Constant(Value("Node", 3))
    x = Variable("x")
    q = ConjunctiveQuery(Atom("Q", (c, x)), [Atom("E", (x, x))])
    assert_parity(q, inst)


def test_empty_relations():
    q = chain_query(3)
    rows = assert_parity(q, DatabaseInstance(edge_schema()))
    assert rows == frozenset()


def test_inconsistent_equalities_empty_everywhere():
    inst = random_graph_instance(nodes=5, edges=15, seed=7)
    x, y = Variable("x"), Variable("y")
    c0, c1 = Constant(Value("Node", 0)), Constant(Value("Node", 1))
    q = ConjunctiveQuery(
        Atom("Q", (x,)), [Atom("E", (x, y))], [(c0, c1)]
    )
    rows = assert_parity(q, inst)
    assert rows == frozenset()


def test_repeated_rows_and_self_loops():
    # Self-loops exercise repeated-variable positions within one atom.
    rows = [
        (Value("Node", 0), Value("Node", 0)),
        (Value("Node", 0), Value("Node", 1)),
        (Value("Node", 1), Value("Node", 0)),
    ]
    inst = DatabaseInstance.from_rows(edge_schema(), {"E": rows})
    x = Variable("x")
    q = ConjunctiveQuery(Atom("Q", (x,)), [Atom("E", (x, x))])
    oracle = assert_parity(q, inst)
    assert oracle == frozenset({(Value("Node", 0),)})


# ------------------------------------------- query-engine shapes, small


def _edges(pairs):
    return DatabaseInstance.from_rows(
        edge_schema(),
        {"E": [(Value("Node", a), Value("Node", b)) for a, b in pairs]},
    )


def test_star_with_three_dimensions_and_equalities():
    _, inst = star_join_instance(fact_rows=24, dimensions=3, dim_rows=4, seed=3)
    q = parse_query(
        "Q(F, P0, P1, P2) :- fact(F, D0, D1, D2), dim0(K0, P0), "
        "dim1(K1, P1), dim2(K2, P2), D0 = K0, D1 = K1, D2 = K2."
    )
    assert is_alpha_acyclic(q)
    assert len(assert_parity(q, inst)) == 24


def test_chain4_over_path_plus_dangling_edges():
    path = [(i, i + 1) for i in range(8)]
    dangling = [(100 + 2 * i, 101 + 2 * i) for i in range(6)]
    rows = assert_parity(chain_query(4), _edges(path + dangling))
    assert len(rows) == 5  # an 8-edge path has 5 chains of length 4


def test_bowtie_chain3_is_empty():
    # Every 2-chain through the hub ends at an out-spoke with no successor.
    spokes = 5
    pairs = [(i, 0) for i in range(1, spokes + 1)]
    pairs += [(0, -i) for i in range(1, spokes + 1)]
    assert assert_parity(chain_query(3), _edges(pairs)) == frozenset()


def test_triangle_with_one_variable_head():
    inst = random_graph_instance(nodes=6, edges=20, seed=4)
    q = parse_query(
        "Q(X) :- E(X, Y), E(Y2, Z), E(Z2, X2), Y = Y2, Z = Z2, X = X2."
    )
    assert not is_alpha_acyclic(q)
    assert_parity(q, inst)


# --------------------------------------------------- plan corner cases


def test_disconnected_body_is_a_cross_product():
    # The second atom shares no variable with the first: their join-tree
    # link carries no semijoin, and the join multiplies the components.
    inst = random_graph_instance(nodes=6, edges=10, seed=5)
    q = parse_query("Q(X, W) :- E(X, Y), E(Z, W).")
    rows = assert_parity(q, inst)
    sources = {row[0] for row in inst.relation("E")}
    targets = {row[1] for row in inst.relation("E")}
    assert len(rows) == len(sources) * len(targets)


def test_head_repeating_a_variable():
    inst = random_graph_instance(nodes=6, edges=15, seed=6)
    q = parse_query("Q(X, Y, X) :- E(X, Z), E(Z, Y).")
    rows = assert_parity(q, inst)
    assert all(row[0] == row[2] for row in rows)


@pytest.mark.parametrize("present", [True, False])
def test_atom_of_constants_only(present):
    pairs = [(0, 1), (1, 2), (2, 0)] + ([(7, 8)] if present else [])
    q = parse_query("Q(X) :- E(X, Y), E(A, B), A = Node:7, B = Node:8.")
    rows = assert_parity(q, _edges(pairs))
    expected = {(Value("Node", a),) for a, _ in pairs} if present else set()
    assert rows == expected


# ------------------------------------------------------------- reducer


@pytest.mark.parametrize(
    "make_query",
    [lambda: chain_query(3), lambda: star_query(4), lambda: cycle_query(4)],
)
def test_reducer_compiled_exactly_on_acyclic(make_query):
    """The plan carries a semijoin reducer iff the query is α-acyclic."""
    q = make_query()
    assert bool(compile_plan(q).reducer) == is_alpha_acyclic(q)


@pytest.mark.parametrize("seed", range(20))
def test_plan_acyclic_agrees_with_is_alpha_acyclic_on_random_queries(seed):
    schema = random_keyed_schema(seed, ["A", "B"], n_relations=2, max_arity=3)
    q = random_query(schema, seed=seed, max_atoms=4)
    assert compile_plan(q).acyclic == is_alpha_acyclic(q)
