"""Yannakakis-style evaluation of acyclic queries.

The production backend semijoin-reduces every body that has a join tree
(:func:`repro.cq.hypergraph.join_tree`) before joining.  The inputs below
stress that path — dangling tuples, disconnected components, constants,
repeats — and each answer is checked against the naive oracle on every
backend (:func:`tests.cq.test_backend_parity.assert_parity`).
"""

from repro.cq.equality import substitute_representatives
from repro.cq.hypergraph import is_alpha_acyclic, join_tree
from repro.cq.parser import parse_query
from repro.relational import DatabaseInstance, Value, random_instance, relation, schema
from repro.workloads import (
    chain_query,
    cycle_query,
    edge_schema,
    path_instance,
    random_graph_instance,
    random_identity_join_query,
    random_query,
    star_query,
)
from repro.workloads.schema_gen import random_keyed_schema
from tests.cq.test_backend_parity import assert_parity


def _variable_sets(query):
    rewritten, _ = substitute_representatives(query)
    return [frozenset(a.variables()) for a in rewritten.body]


def test_join_tree_of_chain():
    links = join_tree(_variable_sets(chain_query(4)))
    assert links is not None
    assert len(links) == 3  # n atoms → n-1 parent links


def test_join_tree_rejects_cycle():
    assert join_tree(_variable_sets(cycle_query(4))) is None


def test_chain_query_agreement():
    inst = random_graph_instance(nodes=20, edges=60, seed=3)
    for n in (1, 2, 4):
        assert_parity(chain_query(n), inst)


def test_star_query_agreement():
    inst = random_graph_instance(nodes=15, edges=50, seed=4)
    for rays in (1, 3, 5):
        assert_parity(star_query(rays), inst)


def test_cyclic_query_falls_back():
    inst = random_graph_instance(nodes=10, edges=30, seed=5)
    q = cycle_query(3)
    assert not is_alpha_acyclic(q)
    assert_parity(q, inst)  # no reducer, same answers


def test_path_instance_exact_counts():
    # A 6-edge path has exactly 4 chains of length 3, exporting (x0, x3).
    assert len(assert_parity(chain_query(3), path_instance(6))) == 4


def test_dangling_tuples_removed():
    """A chain over a graph where most edges dangle: answers still exact."""
    rows = [(Value("Node", i), Value("Node", i + 1)) for i in range(3)]
    # Add dangling edges that cannot extend to a full 3-chain.
    rows += [(Value("Node", 100 + i), Value("Node", 200 + i)) for i in range(50)]
    inst = DatabaseInstance.from_rows(edge_schema(), {"E": rows})
    assert len(assert_parity(chain_query(3), inst)) == 1


def test_constants_and_repeats():
    inst = random_graph_instance(nodes=8, edges=40, seed=6)
    assert_parity(parse_query("Q(X) :- E(X, Y), X = Y."), inst)
    assert_parity(parse_query("Q(Y) :- E(X, Y), X = Node:1."), inst)


def test_disconnected_product_query():
    s = schema(
        relation("R", [("a", "T"), ("b", "T")], key=["a"]),
        relation("S", [("c", "U")], key=["c"]),
    )
    inst = random_instance(s, rows_per_relation=4, seed=7)
    assert_parity(parse_query("Q(X, C) :- R(X, Y), S(C)."), inst)


def test_empty_component_zeroes_product():
    s = schema(
        relation("R", [("a", "T")], key=["a"]),
        relation("S", [("c", "U")], key=["c"]),
    )
    inst = DatabaseInstance.from_rows(s, {"R": [(Value("T", 1),)], "S": []})
    q = parse_query("Q(X, C) :- R(X), S(C).")
    assert assert_parity(q, inst) == frozenset()


def test_random_acyclic_queries_differential():
    for schema_seed in range(4):
        s = random_keyed_schema(schema_seed, ["A", "B"], n_relations=2, max_arity=3)
        inst = random_instance(s, rows_per_relation=5, seed=schema_seed)
        for query_seed in range(12):
            assert_parity(random_query(s, seed=query_seed, max_atoms=3), inst)
        for query_seed in range(8):
            q = random_identity_join_query(s, seed=query_seed, max_atoms=3)
            assert_parity(q, inst)


def test_inconsistent_query_empty():
    q = parse_query("Q(X) :- E(X, Y), Y = Node:1, Y = Node:2.")
    assert assert_parity(q, path_instance(3)) == frozenset()
