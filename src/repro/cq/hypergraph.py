"""Query hypergraphs: α-acyclicity (GYO) and join-graph statistics.

The body of a conjunctive query is a hypergraph — each atom contributes
the hyperedge of its variables' equality-class representatives.  The
classical GYO reduction decides α-acyclicity: repeatedly remove *ear*
edges (edges whose non-exclusive vertices all lie inside some other edge);
the query is acyclic iff the reduction empties the hypergraph.  Acyclic
queries are the well-behaved class for evaluation (Yannakakis), and
acyclicity statistics are useful for understanding the containment/
evaluation benchmarks (chains and stars are acyclic; cycles of length ≥ 3
are not).

The join graph (one node per atom, edges between atoms sharing a
variable) is exposed as a :mod:`networkx` graph for ad-hoc analysis.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Set, Tuple

import networkx as nx

from repro.cq.equality import equality_structure
from repro.cq.syntax import ConjunctiveQuery, Variable


def hyperedges(query: ConjunctiveQuery) -> List[FrozenSet[Variable]]:
    """One hyperedge per body atom: the atom's variables modulo equality.

    Variables are canonicalised to their equality-class representatives so
    that joins expressed through the equality list connect the edges they
    semantically connect.
    """
    paper = query.paper_form()
    structure = equality_structure(paper)
    edges: List[FrozenSet[Variable]] = []
    for atom in paper.body:
        edge = set()
        for term in atom.terms:
            resolved = structure.resolve(term)
            if isinstance(resolved, Variable):
                edge.add(resolved)
        edges.append(frozenset(edge))
    return edges


def is_alpha_acyclic(query: ConjunctiveQuery) -> bool:
    """GYO reduction: True iff the query's hypergraph is α-acyclic.

    Repeat until no rule applies: (1) drop an edge contained in another
    edge; (2) drop a vertex occurring in exactly one edge.  The query is
    acyclic iff at most one (possibly empty) edge remains.
    """
    edges: List[Set[Variable]] = [set(e) for e in hyperedges(query)]
    changed = True
    while changed:
        changed = False
        # Rule 1: remove edges contained in another edge.
        for i, edge in enumerate(edges):
            if any(
                j != i and edge <= other for j, other in enumerate(edges)
            ):
                del edges[i]
                changed = True
                break
        if changed:
            continue
        # Rule 2: remove vertices exclusive to one edge.
        counts: Dict[Variable, int] = {}
        for edge in edges:
            for vertex in edge:
                counts[vertex] = counts.get(vertex, 0) + 1
        for edge in edges:
            exclusive = {v for v in edge if counts[v] == 1}
            if exclusive:
                edge -= exclusive
                changed = True
                break
    return len(edges) <= 1


def join_tree(
    variable_sets: Sequence[FrozenSet[Variable]],
) -> Optional[List[Tuple[int, int]]]:
    """A join tree over atom indices via GYO reduction with witnesses.

    Returns parent links ``(child, parent)`` (the last surviving atom is
    the root and has no link), or ``None`` when the hypergraph is cyclic.
    Ears whose remaining vertices vanish entirely (disconnected components)
    are attached to the last survivor so downstream joins still visit them.

    This is the constructive companion of :func:`is_alpha_acyclic`: GYO
    succeeds on exactly the α-acyclic hypergraphs, so the result is
    ``None`` iff the hypergraph is cyclic.  The evaluation plans
    (:mod:`repro.cq.backends.plan`) build their semijoin reducers on it.
    """
    remaining: Dict[int, Set[Variable]] = {
        i: set(vs) for i, vs in enumerate(variable_sets)
    }
    links: List[Tuple[int, int]] = []
    orphans: List[int] = []
    while len(remaining) > 1:
        ear_found = False
        for i, edge in list(remaining.items()):
            counts = {
                v: sum(1 for j, other in remaining.items() if j != i and v in other)
                for v in edge
            }
            non_exclusive = {v for v in edge if counts[v] > 0}
            witness = None
            for j, other in remaining.items():
                if j != i and non_exclusive <= other:
                    witness = j
                    break
            if witness is None and not non_exclusive:
                # Fully disconnected ear (cross-product component).
                orphans.append(i)
                del remaining[i]
                ear_found = True
                break
            if witness is not None:
                links.append((i, witness))
                del remaining[i]
                ear_found = True
                break
        if not ear_found:
            return None
    root = next(iter(remaining))
    for orphan in orphans:
        links.append((orphan, root))
    return links


def join_tree_depth(
    links: Optional[Sequence[Tuple[int, int]]], atom_count: int
) -> int:
    """The depth (longest root-to-leaf path, in edges) of a join tree.

    A single atom (or an empty link list) has depth 0; ``None`` (cyclic)
    is reported as -1 so callers can aggregate without special-casing.
    """
    if links is None:
        return -1
    if not links or atom_count <= 1:
        return 0
    parents: Dict[int, int] = {child: parent for child, parent in links}
    depth = 0
    for node in range(atom_count):
        steps = 0
        current = node
        seen = 0
        while current in parents and seen <= atom_count:
            current = parents[current]
            steps += 1
            seen += 1
        depth = max(depth, steps)
    return depth


def join_graph(query: ConjunctiveQuery) -> nx.Graph:
    """The join graph: atoms as nodes, edges between variable-sharing atoms."""
    edges = hyperedges(query)
    graph = nx.Graph()
    graph.add_nodes_from(range(len(edges)))
    for i, first in enumerate(edges):
        for j in range(i + 1, len(edges)):
            shared = first & edges[j]
            if shared:
                graph.add_edge(i, j, shared=len(shared))
    return graph


class QueryStatistics(NamedTuple):
    """Structural statistics of one conjunctive query."""

    atoms: int
    distinct_relations: int
    variables: int
    equality_classes: int
    constants: int
    is_connected: bool
    is_alpha_acyclic: bool


def query_statistics(query: ConjunctiveQuery) -> QueryStatistics:
    """Compute the structural statistics of ``query``."""
    paper = query.paper_form()
    structure = equality_structure(paper)
    graph = join_graph(paper)
    classes = structure.variable_classes()
    return QueryStatistics(
        atoms=len(paper.body),
        distinct_relations=len(set(paper.body_relations())),
        variables=len(paper.variables()),
        equality_classes=len(classes),
        constants=len(paper.constants()),
        is_connected=nx.is_connected(graph) if len(graph) else True,
        is_alpha_acyclic=is_alpha_acyclic(paper),
    )
