"""E6 — containment-engine scale.

Validated claim: the homomorphism search, a plain left-to-right
backtracker, decides containment for chain, cycle and star query
families (EXPERIMENTS.md, E6, records why it is plain).
"""

import pytest

from repro.cq.homomorphism import is_contained_in
from repro.cq.parser import parse_query
from repro.workloads import chain_query, cycle_query, edge_schema, star_query

SCHEMA = edge_schema()
LOOP = parse_query("Q(X) :- E(X, Y), X = Y.")


@pytest.mark.benchmark(group="e6-containment")
@pytest.mark.parametrize("n", [4, 8, 12])
def test_e6_cycle_folds_to_loop(benchmark, n):
    """A self-loop satisfies every cycle pattern: loop ⊆ cycle(n)."""
    cycle = cycle_query(n)

    verdict = benchmark(lambda: is_contained_in(LOOP, cycle, SCHEMA))
    assert verdict


@pytest.mark.benchmark(group="e6-containment")
@pytest.mark.parametrize("n", [4, 8, 12])
def test_e6_chain_non_containment(benchmark, n):
    """chain(n) vs chain(n+1): neither containment holds; both decided."""
    shorter = chain_query(n)
    longer = chain_query(n + 1)

    def run():
        return (
            is_contained_in(shorter, longer, SCHEMA),
            is_contained_in(longer, shorter, SCHEMA),
        )

    forward, backward = benchmark(run)
    assert not forward and not backward


@pytest.mark.benchmark(group="e6-containment")
def test_e6_star_contains_fewer_rays(benchmark):
    big = star_query(8)
    small = star_query(3)

    verdict = benchmark(lambda: is_contained_in(big, small, SCHEMA))
    assert verdict  # more rays ⊆ fewer rays (same centre exported)
