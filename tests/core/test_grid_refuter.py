"""The grid refuter must answer exactly what ``quick_reject`` answers.

Both pair loops of the dominance search refute candidates through
:class:`GridRefuter`, which shares gadget work across the α×β grid.  These
tests pin it to the one-pair predicate, pair by pair, and pin the search's
report lines and the Theorem 13 scan rows to a reference scan that calls
``quick_reject`` once per pair.
"""

import pytest

from repro.core import search as _search
from repro.core.counterexample import GridRefuter, quick_reject
from repro.core.search import enumerate_mappings, search_dominance, theorem13_scan
from repro.cq.parser import parse_query
from repro.engine.report import search_report_lines
from repro.mappings import QueryMapping
from repro.mappings.validity import is_valid
from repro.obs import metrics
from repro.relational import parse_schema
from repro.workloads import enumerate_keyed_schemas, shuffled_copy

# The scan-wide classes (arity ≤ 2) and the two-relation universe.
WIDE = list(enumerate_keyed_schemas(["T", "U"], max_relations=1, max_arity=2))
TWO_RELATION = list(
    enumerate_keyed_schemas(["T", "U"], max_relations=2, max_arity=1)
)


def _valid(s1, s2):
    return [m for m in enumerate_mappings(s1, s2, max_atoms=2) if is_valid(m)]


def _assert_grid_matches(alphas, betas):
    refuter = GridRefuter(alphas, betas)
    grid = [
        refuter.rejects(a, b)
        for a in range(len(alphas))
        for b in range(len(betas))
    ]
    reference = [quick_reject(alpha, beta) for alpha in alphas for beta in betas]
    mismatches = [
        divmod(flat, len(betas))
        for flat, (got, want) in enumerate(zip(grid, reference))
        if got != want
    ]
    assert not mismatches, f"(α, β) index pairs that differ: {mismatches[:5]}"


@pytest.mark.parametrize(
    "universe", [WIDE, TWO_RELATION], ids=["scan-wide-classes", "two-relation"]
)
def test_grid_verdicts_equal_quick_reject_on_every_validated_pair(universe):
    valid = {(s1, s2): _valid(s1, s2) for s1 in universe for s2 in universe}
    for s1 in universe:
        for s2 in universe:
            _assert_grid_matches(valid[(s1, s2)], valid[(s2, s1)])


def test_mappings_with_constants_and_key_violations_match_quick_reject():
    s1, _ = parse_schema("A(a1*: T, a2: T)")
    s2, _ = parse_schema("M(m1*: T, m2: T)")
    # Unvalidated candidates, so key violations reach the refuter too.
    alphas = list(enumerate_mappings(s1, s2, max_atoms=2))
    betas = list(enumerate_mappings(s2, s1, max_atoms=2))
    assert not all(is_valid(m) for m in alphas)
    alphas.append(
        QueryMapping(s1, s2, {"M": parse_query("M(X, T:0) :- A(X, Y).")})
    )
    betas.append(
        QueryMapping(s2, s1, {"A": parse_query("A(X, T:0) :- M(X, Y).")})
    )
    _assert_grid_matches(alphas, betas)


def test_one_class_per_distinct_image_tuple_and_one_round_trip_per_cell():
    s1, s2 = WIDE[4], shuffled_copy(WIDE[4], seed=3)
    alphas, betas = _valid(s1, s2), _valid(s2, s1)
    before = metrics.registry().snapshot()
    refuter = GridRefuter(alphas, betas)
    for _ in range(2):  # the second sweep is answered from the rows
        for a in range(len(alphas)):
            for b in range(len(betas)):
                refuter.rejects(a, b)
    delta = metrics.diff(before, metrics.registry().snapshot())
    classes = delta["search.alpha_classes"]
    assert 1 <= classes < len(alphas)
    assert delta["search.round_trip_checks"] == classes * len(betas)


class _PairwiseRefuter:
    """The reference: one ``quick_reject`` call per pair."""

    def __init__(self, alphas, betas):
        self._alphas = alphas
        self._betas = betas

    def rejects(self, a, b):
        return quick_reject(self._alphas[a], self._betas[b])


# Witness, no-witness and obstructed searches among the scan-wide classes.
SEARCH_PAIRS = [
    (WIDE[index], shuffled_copy(WIDE[index], seed=index)) for index in (1, 4, 7)
] + [(WIDE[3], WIDE[4]), (WIDE[4], WIDE[7]), (WIDE[0], WIDE[8])]


def test_search_report_lines_match_pairwise_reference(monkeypatch):
    def report():
        return [
            search_report_lines(search_dominance(s1, s2, max_atoms=2), 2)
            for s1, s2 in SEARCH_PAIRS
        ]

    grid = report()
    monkeypatch.setattr(_search, "GridRefuter", _PairwiseRefuter)
    assert report() == grid
    assert any(line == "dominance witness found:" for lines in grid for line in lines)


def test_theorem13_rows_match_pairwise_reference(monkeypatch):
    def rows():
        return theorem13_scan(WIDE, max_atoms=2)

    grid = rows()
    monkeypatch.setattr(_search, "GridRefuter", _PairwiseRefuter)
    assert rows() == grid
    assert all(row.verdict == "ok" for row in grid)
