"""Peak memory of the default evaluator on high-cardinality joins.

A join on a column whose values are all distinct must cost memory in
proportion to the input, not to its square.  Twenty thousand disjoint
edges make the two-step chain empty; a per-value posting bitmask over
row ids, for comparison, allocated about 112 MB on this input.
"""

import tracemalloc

from repro.cq.evaluation import evaluate
from repro.cq.parser import parse_query
from repro.relational import DatabaseInstance, Value
from repro.workloads import edge_schema

EDGES = 20_000
PEAK_LIMIT_BYTES = 16 * 2**20


def test_empty_join_over_disjoint_edges_peaks_below_16_mb():
    rows = [(Value("Node", 2 * i), Value("Node", 2 * i + 1)) for i in range(EDGES)]
    instance = DatabaseInstance.from_rows(edge_schema(), {"E": rows})
    query = parse_query("Q(X, Z) :- E(X, Y), E(Y2, Z), Y = Y2.")
    tracemalloc.start()
    try:
        result = evaluate(query, instance)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.is_empty()
    assert peak < PEAK_LIMIT_BYTES, f"peak {peak / 2**20:.1f} MB"
