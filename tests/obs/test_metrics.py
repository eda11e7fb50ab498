"""Unit tests for the metrics registry (:mod:`repro.obs.metrics`)."""

import pytest

from repro.obs.metrics import (
    MetricsRegistry,
    cache_totals,
    diff,
    registry,
    sum_matching,
)


def test_counter_created_once_and_shared():
    reg = MetricsRegistry()
    a = reg.counter("x.hits")
    b = reg.counter("x.hits")
    assert a is b
    a.inc()
    b.inc(2)
    assert a.value == 3


def test_gauge_set_and_excluded_from_snapshot():
    reg = MetricsRegistry()
    reg.gauge("depth").set(7)
    reg.counter("work").inc(1)
    assert reg.snapshot() == {"work": 1}
    assert reg.gauges() == {"depth": 7}
    assert reg.as_dict() == {"work": 1, "depth": 7}


def test_histogram_summary_and_counter_parts():
    reg = MetricsRegistry()
    hist = reg.histogram("rounds")
    for value in (1, 3, 2):
        hist.observe(value)
    assert hist.count == 3
    assert hist.total == 6
    assert hist.mean == 2.0
    assert hist.min == 1 and hist.max == 3
    # The additive parts are genuine counters, visible in snapshots.
    snap = reg.snapshot()
    assert snap["rounds.count"] == 3
    assert snap["rounds.total"] == 6


def test_histogram_empty_mean_is_zero():
    assert MetricsRegistry().histogram("empty").mean == 0.0


def test_snapshot_diff_merge_round_trip():
    reg = MetricsRegistry()
    reg.counter("a").inc(5)
    before = reg.snapshot()
    reg.counter("a").inc(2)
    reg.counter("b").inc(1)
    delta = diff(before, reg.snapshot())
    assert delta == {"a": 2, "b": 1}
    other = MetricsRegistry()
    other.counter("a").inc(100)
    other.merge(delta)
    assert other.counter("a").value == 102
    assert other.counter("b").value == 1


def test_diff_drops_zero_entries():
    assert diff({"a": 5, "b": 1}, {"a": 5, "b": 2}) == {"b": 1}


def test_reset_zeroes_everything():
    reg = MetricsRegistry()
    reg.counter("c").inc(3)
    reg.gauge("g").set(9)
    hist = reg.histogram("h")
    hist.observe(4)
    reg.reset()
    assert reg.counter("c").value == 0
    assert reg.gauge("g").value == 0
    assert hist.min is None and hist.max is None
    assert hist.count == 0


def test_sum_matching_and_cache_totals():
    snap = {
        "cache.a.hits": 3,
        "cache.a.misses": 1,
        "cache.b.hits": 4,
        "cache.b.evictions": 2,
        "hom.backtracks": 99,
    }
    assert sum_matching(snap, "cache.", ".hits") == 7
    assert sum_matching(snap, "hom.") == 99
    assert cache_totals(snap) == (7, 1, 2)


def test_default_registry_is_process_wide():
    assert registry() is registry()


def test_memo_stats_live_in_default_registry():
    """Satellite: memo cache stats have a single source of truth."""
    from repro.utils import memo

    cache = memo.Memo("obs-integration-test")
    start = registry().counter("cache.obs-integration-test.hits").value
    cache.get_or_compute("k", lambda: 1)
    cache.get_or_compute("k", lambda: 1)
    assert registry().counter("cache.obs-integration-test.hits").value == start + 1
    assert cache.stats.hits == start + 1


def test_match_backtracks_live_in_default_registry():
    from repro.cq.homomorphism import is_contained_in
    from repro.workloads import chain_query, edge_schema

    counter = registry().counter("hom.backtracks")
    start = counter.value
    # chain(1) ⊄ chain(2): the matcher exhausts its search and backtracks.
    assert not is_contained_in(chain_query(1), chain_query(2), edge_schema())
    assert counter.value > start
