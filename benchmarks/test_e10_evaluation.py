"""E10 — evaluation-engine scale + the hash-join vs naive ablation.

Validated claim: the hash-join evaluator handles star joins over fact
tables that grow to 10⁴–10⁵ tuples; the naive evaluator is only feasible
on small instances (ablation, bounded sizes) and agrees with the hash-join
path where it runs.  The Yannakakis group times the evaluator's semijoin
reducer on dangling-heavy and bowtie instances, each cross-checked
against the naive evaluator on a small copy.
"""

import pytest

from repro.cq.evaluation import evaluate, evaluate_naive
from repro.cq.parser import parse_query
from repro.utils import memo
from repro.workloads import random_graph_instance, star_join_instance

STAR_QUERY = parse_query(
    "Q(F, P0, P1, P2) :- fact(F, D0, D1, D2), dim0(K0, P0), dim1(K1, P1), "
    "dim2(K2, P2), D0 = K0, D1 = K1, D2 = K2."
)
TRIANGLE = parse_query(
    "Q(X) :- E(X, Y), E(Y2, Z), E(Z2, X2), Y = Y2, Z = Z2, X = X2."
)


@pytest.mark.benchmark(group="e10-evaluation")
@pytest.mark.parametrize("fact_rows", [1_000, 10_000, 100_000])
def test_e10_star_join_scaling(benchmark, fact_rows):
    _, instance = star_join_instance(fact_rows=fact_rows, dimensions=3)

    result = benchmark(lambda: evaluate(STAR_QUERY, instance))
    assert len(result) == fact_rows


@pytest.mark.benchmark(group="e10-evaluation-ablation")
@pytest.mark.parametrize("fact_rows", [50, 200])
def test_e10_ablation_naive(benchmark, fact_rows):
    _, instance = star_join_instance(fact_rows=fact_rows, dimensions=2, dim_rows=8)
    query = parse_query(
        "Q(F, P0, P1) :- fact(F, D0, D1), dim0(K0, P0), dim1(K1, P1), "
        "D0 = K0, D1 = K1."
    )

    result = benchmark(lambda: evaluate_naive(query, instance))
    assert result.rows == evaluate(query, instance).rows


@pytest.mark.benchmark(group="e10-evaluation-ablation")
@pytest.mark.parametrize("fact_rows", [50, 200])
def test_e10_ablation_hash_join_same_sizes(benchmark, fact_rows):
    _, instance = star_join_instance(fact_rows=fact_rows, dimensions=2, dim_rows=8)
    query = parse_query(
        "Q(F, P0, P1) :- fact(F, D0, D1), dim0(K0, P0), dim1(K1, P1), "
        "D0 = K0, D1 = K1."
    )

    result = benchmark(lambda: evaluate(query, instance))
    assert len(result) == fact_rows


@pytest.mark.benchmark(group="e10-evaluation")
@pytest.mark.parametrize("edges", [500, 5_000])
def test_e10_triangle_query(benchmark, edges):
    instance = random_graph_instance(nodes=80, edges=edges, seed=1)

    # Correctness cross-check against the naive evaluator on a small graph
    # (the naive path is cubic in the edge count — only feasible tiny).
    small = random_graph_instance(nodes=12, edges=30, seed=2)
    assert evaluate(TRIANGLE, small).rows == evaluate_naive(TRIANGLE, small).rows

    result = benchmark(lambda: evaluate(TRIANGLE, instance))
    assert result.schema.arity == 1


def uncached(benchmark, run):
    """Time ``run`` with the evaluate memo emptied before every round.

    ``evaluate`` answers a repeat on an instance of at most 2 048 rows
    from its memo, which would time a dict probe instead of the join.
    """
    return benchmark.pedantic(
        run, setup=memo.memo("evaluate").clear, rounds=20, iterations=1
    )


def dangling_heavy_instance(chain_rows: int, dangling: int):
    """A short path plus many dangling edges that never extend to a chain."""
    from repro.relational import DatabaseInstance, Value
    from repro.workloads import edge_schema

    rows = [(Value("Node", i), Value("Node", i + 1)) for i in range(chain_rows)]
    rows += [
        (Value("Node", 10_000 + i), Value("Node", 20_000 + i))
        for i in range(dangling)
    ]
    return DatabaseInstance.from_rows(edge_schema(), {"E": rows})


@pytest.mark.benchmark(group="e10-yannakakis-ablation")
@pytest.mark.parametrize("dangling", [2_000, 20_000])
def test_e10_ablation_yannakakis(benchmark, dangling):
    """Chain-4 over a 64-edge path plus dangling edges: the evaluator's
    semijoin reducer removes every dangling edge before the join."""
    from repro.workloads import chain_query

    query = chain_query(4)
    small = dangling_heavy_instance(chain_rows=6, dangling=8)
    assert evaluate(query, small).rows == evaluate_naive(query, small).rows

    instance = dangling_heavy_instance(chain_rows=64, dangling=dangling)
    result = uncached(benchmark, lambda: evaluate(query, instance))
    assert len(result) == 61  # 64-edge path has 61 chains of length 4


def bowtie_instance(n: int):
    """n edges into a hub, n edges out — chain(3) blows up mid-join and
    then dies entirely (the textbook Yannakakis worst case)."""
    from repro.relational import DatabaseInstance, Value
    from repro.workloads import edge_schema

    rows = [(Value("Node", i), Value("Node", 0)) for i in range(1, n + 1)]
    rows += [(Value("Node", 0), Value("Node", -i)) for i in range(1, n + 1)]
    return DatabaseInstance.from_rows(edge_schema(), {"E": rows})


@pytest.mark.benchmark(group="e10-yannakakis-ablation")
@pytest.mark.parametrize("n", [200, 400])
def test_e10_ablation_yannakakis_bowtie(benchmark, n):
    """Bowtie chain-3: the reducer empties a table, so no join runs."""
    from repro.workloads import chain_query

    query = chain_query(3)
    small = bowtie_instance(4)
    assert evaluate_naive(query, small).is_empty()
    assert evaluate(query, small).is_empty()

    instance = bowtie_instance(n)
    result = uncached(benchmark, lambda: evaluate(query, instance))
    assert result.is_empty()
