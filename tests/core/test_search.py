"""Unit tests for the bounded exhaustive search (experiment E1 machinery)."""

import random
import sys
import threading

import pytest

from repro.core import search as search_module
from repro.core.search import (
    enumerate_mappings,
    enumerate_view_queries,
    search_dominance,
    search_equivalence,
    theorem13_scan,
)
from repro.cq.parser import format_query
from repro.cq.typecheck import is_well_typed
from repro.obs import metrics
from repro.relational import is_isomorphic, parse_schema, relation, schema
from repro.workloads.schema_gen import enumerate_keyed_schemas, shuffled_copy


@pytest.fixture
def tiny():
    s, _ = parse_schema("R(a*: T, b: U)")
    return s


def test_enumerated_queries_are_well_typed(tiny):
    view = relation("V", [("v1", "T"), ("v2", "U")], key=["v1"])
    queries = list(enumerate_view_queries(tiny, view, max_atoms=2))
    assert queries
    for q in queries:
        assert is_well_typed(q, tiny)
        assert q.view_name == "V"
        assert len(q.body) <= 2


def test_enumeration_includes_the_projection(tiny):
    """The canonical copy view must be among the candidates."""
    view = relation("V", [("v1", "T"), ("v2", "U")], key=["v1"])
    queries = list(enumerate_view_queries(tiny, view, max_atoms=1))
    from repro.cq.parser import parse_query
    from repro.cq.homomorphism import are_equivalent

    target = parse_query("V(X, Y) :- R(X, Y).")
    assert any(are_equivalent(q, target, tiny) for q in queries)


def test_enumeration_empty_when_untypeable(tiny):
    """A view needing a type the source lacks has no candidates."""
    view = relation("V", [("v1", "Z")], key=["v1"])
    assert list(enumerate_view_queries(tiny, view, max_atoms=2)) == []


def test_enumerate_mappings_cross_product(tiny):
    target, _ = parse_schema("P(p*: T)\nQ0(q*: U)")
    mappings = list(enumerate_mappings(tiny, target, max_atoms=1))
    assert mappings
    for mapping in mappings:
        assert set(mapping.queries()) == {"P", "Q0"}


def test_search_finds_witness_for_isomorphic():
    s1, _ = parse_schema("R(a*: T, b: U)")
    s2, _ = parse_schema("P(x*: T, y: U)")
    result = search_dominance(s1, s2, max_atoms=1)
    assert result.found
    assert result.pair.holds()
    assert result.stats.exact_checks >= 1


def test_search_fails_for_incompatible_types():
    s1, _ = parse_schema("R(a*: T, b: U)")
    s2, _ = parse_schema("P(x*: T, y: T)")
    result = search_equivalence(s1, s2, max_atoms=2)
    assert not result.found


def test_search_fails_for_lossy_target():
    """S₂ has fewer attributes: nothing can encode S₁'s non-key column."""
    s1, _ = parse_schema("R(a*: T, b: U)")
    s2, _ = parse_schema("P(x*: T)")
    result = search_equivalence(s1, s2, max_atoms=2)
    assert not result.found


def test_theorem13_scan_consistency():
    schemas = [
        parse_schema("R(a*: T)")[0],
        parse_schema("P(x*: T)")[0],        # isomorphic to the first
        parse_schema("R(a*: T, b: T)")[0],  # not isomorphic
    ]
    rows = theorem13_scan(schemas, max_atoms=1)
    assert len(rows) == 6  # unordered pairs incl. self-pairs
    assert all(row.consistent_with_theorem13 for row in rows)
    assert any(row.isomorphic and row.index1 != row.index2 for row in rows)


def test_stats_surface_perf_counters():
    from repro.utils import memo

    memo.clear_all()  # force cold caches so misses are observable
    s1, _ = parse_schema("emp(ss*: SSN, name: Name)")
    s2, _ = parse_schema("person(id*: SSN, nm: Name)")
    result = search_dominance(s1, s2, max_atoms=1)
    assert result.found
    assert result.stats.wall_time > 0.0
    # The exact checks exercise the matcher and the memo layer.
    assert result.stats.cache_misses > 0


def test_search_on_empty_candidate_grid():
    # max_atoms=0 admits no view queries at all: both candidate sets are
    # empty and the search completes without scanning a pair.
    s1, _ = parse_schema("emp(ss*: SSN, name: Name)")
    s2, _ = parse_schema("person(id*: SSN, nm: Name)")
    result = search_dominance(s1, s2, max_atoms=0)
    assert not result.found
    assert result.complete
    assert result.stats.alpha_candidates == 0
    assert result.stats.beta_candidates == 0
    assert result.stats.pairs_tried == 0


def _direction(result):
    """A dominance result as (witness, census, complete), witness formatted."""
    witness = None
    if result.found:
        witness = (
            tuple(format_query(v.query) for v in result.pair.alpha),
            tuple(format_query(v.query) for v in result.pair.beta),
        )
    stats = result.stats
    census = (
        stats.alpha_candidates,
        stats.beta_candidates,
        stats.pairs_tried,
        stats.pairs_gadget_rejected,
        stats.exact_checks,
    )
    return witness, census, result.complete


def _equivalence(result):
    backward = None if result.backward is None else _direction(result.backward)
    return _direction(result.forward), backward, result.found


def test_cell_settled_backward_by_lemma_runs_no_enumeration(monkeypatch):
    """S₁ ⪯ S₂ is open, S₂ ⪯ S₁ fails by key pigeonhole: no grid runs."""
    s1, _ = parse_schema("R(a*: T, b: T)")
    s2, _ = parse_schema("P(x*: T, y*: T)")

    def no_enumeration(*args, **kwargs):
        raise AssertionError("a cell settled by a lemma must not enumerate")

    monkeypatch.setattr(search_module, "enumerate_mappings", no_enumeration)
    before = metrics.registry().snapshot().get("search.obstructed", 0)
    result = search_equivalence(s1, s2, max_atoms=2)
    after = metrics.registry().snapshot().get("search.obstructed", 0)
    assert not result.found
    assert result.complete
    assert result.pair_timeouts == 0
    assert after - before == 1
    # The documented shape: forward unrun, backward the obstructed result.
    assert _direction(result.forward) == (None, (0, 0, 0, 0, 0), True)
    assert _direction(result.backward) == (None, (0, 0, 0, 0, 0), True)


def test_backward_direction_matches_a_standalone_search():
    """Reusing the forward lists swapped changes no witness and no census."""
    rng = random.Random(5)
    classes = list(enumerate_keyed_schemas(["T", "U"], 1, 2))
    schemas = classes + [shuffled_copy(s, rng.randrange(1 << 30)) for s in classes]
    pairs = [(a, b) for a in schemas for b in schemas if is_isomorphic(a, b)]
    assert len(pairs) == 36
    for s1, s2 in pairs:
        result = search_equivalence(s1, s2)
        assert result.found, (s1, s2)
        alone = search_dominance(s2, s1)
        assert _direction(result.backward) == _direction(alone), (s1, s2)
        if s1 == s2:
            assert result.backward is result.forward


def test_concurrent_equivalence_searches_match_sequential_ones():
    """Each call owns its working set: threads do not see each other's lists."""
    pairs = [
        (parse_schema("R(a*: T, b: U)")[0], parse_schema("P(x*: T, y: U)")[0]),
        (parse_schema("R(a*: T, b: T)")[0], parse_schema("P(y: T, x*: T)")[0]),
        (parse_schema("R(a*: T, b*: U)")[0], parse_schema("R(a*: T, b*: U)")[0]),
        (parse_schema("R(a*: T, b: T)")[0], parse_schema("P(x*: T, y*: T)")[0]),
    ]
    expected = [_equivalence(search_equivalence(*pair)) for pair in pairs]
    got = [None] * len(pairs)
    failures = []

    def run(index):
        try:
            got[index] = _equivalence(search_equivalence(*pairs[index]))
        except Exception as exc:  # reported below, in the test's thread
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(pairs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures
    assert got == expected
