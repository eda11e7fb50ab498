"""Unit tests for query hypergraphs and α-acyclicity (GYO)."""

import pytest

from repro.cq.hypergraph import (
    hyperedges,
    is_alpha_acyclic,
    join_graph,
    join_tree,
    join_tree_depth,
    query_statistics,
)
from repro.cq.parser import parse_query
from repro.cq.syntax import Variable
from repro.workloads import chain_query, cycle_query, star_query


def test_hyperedges_respect_equality_classes():
    q = parse_query("Q(X) :- R(X, Y), S(Z, W), Y = Z.")
    edges = hyperedges(q)
    assert len(edges) == 2
    # The equated variables resolve to one representative shared by both.
    assert edges[0] & edges[1]


def test_single_atom_acyclic():
    assert is_alpha_acyclic(parse_query("Q(X) :- R(X, Y)."))


def test_chains_and_stars_are_acyclic():
    for n in (1, 2, 5):
        assert is_alpha_acyclic(chain_query(n))
    for rays in (1, 3, 6):
        assert is_alpha_acyclic(star_query(rays))


def test_long_cycles_are_cyclic():
    for n in (3, 4, 6):
        assert not is_alpha_acyclic(cycle_query(n))


def test_two_cycle_is_acyclic():
    """The 2-cycle's edges are {x0,x1} twice — contained, hence acyclic."""
    assert is_alpha_acyclic(cycle_query(2))


def test_triangle_with_covering_edge_is_acyclic():
    """Adding a ternary atom covering the triangle restores acyclicity."""
    q = parse_query(
        "Q(X) :- E(X, Y), E(Y2, Z), E(Z2, X2), T3(X3, Y3, Z3), "
        "Y = Y2, Z = Z2, X = X2, X = X3, Y = Y3, Z = Z3."
    )
    assert is_alpha_acyclic(q)


def test_join_graph_structure():
    q = chain_query(3)
    graph = join_graph(q)
    assert graph.number_of_nodes() == 3
    assert graph.number_of_edges() == 2  # consecutive atoms share a variable


def test_join_graph_disconnected_product():
    q = parse_query("Q(X, Z) :- R(X, Y), S(Z, W).")
    graph = join_graph(q)
    assert graph.number_of_edges() == 0


def test_join_tree_chains_a_cross_product():
    """Atoms sharing no variable each link to the first remaining atom."""
    a, b, c, d, e, f = (Variable(name) for name in "abcdef")
    links = join_tree([frozenset({a, b}), frozenset({c, d}), frozenset({e, f})])
    assert links == [(0, 1), (1, 2)]
    assert join_tree_depth(links, 3) == 2


def test_query_statistics():
    q = parse_query("Q(X) :- R(X, Y), S(Z, W), Y = Z, W = T:5.")
    stats = query_statistics(q)
    assert stats.atoms == 2
    assert stats.distinct_relations == 2
    assert stats.variables == 4
    assert stats.constants == 1
    assert stats.is_connected
    assert stats.is_alpha_acyclic


def test_statistics_of_cycle():
    stats = query_statistics(cycle_query(4))
    assert stats.atoms == 4
    assert not stats.is_alpha_acyclic
    assert stats.is_connected
