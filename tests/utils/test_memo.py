"""Unit tests for the bounded memoization layer (:mod:`repro.utils.memo`)."""

import pytest

from repro.utils import memo


@pytest.fixture(autouse=True)
def _enabled_memo():
    """Each test starts with the memo layer on and leaves it on."""
    previous = memo.set_enabled(True)
    yield
    memo.set_enabled(previous)


def test_miss_then_hit():
    cache = memo.Memo("t-basic")
    calls = []
    assert cache.get_or_compute("k", lambda: calls.append(1) or 41) == 41
    assert cache.get_or_compute("k", lambda: calls.append(1) or 99) == 41
    assert len(calls) == 1
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1


def test_none_results_are_cached():
    """A computed ``None`` is a value, not a cache miss."""
    cache = memo.Memo("t-none")
    calls = []
    assert cache.get_or_compute("k", lambda: calls.append(1)) is None
    assert cache.get_or_compute("k", lambda: calls.append(1)) is None
    assert len(calls) == 1


def test_lru_bound_evicts_oldest():
    cache = memo.Memo("t-lru", maxsize=2)
    cache.get_or_compute("a", lambda: 1)
    cache.get_or_compute("b", lambda: 2)
    cache.get_or_compute("a", lambda: -1)  # refresh a: b is now oldest
    cache.get_or_compute("c", lambda: 3)  # evicts b
    assert len(cache) == 2
    assert cache.stats.evictions == 1
    calls = []
    assert cache.get_or_compute("a", lambda: calls.append(1) or -1) == 1
    assert cache.get_or_compute("b", lambda: calls.append(1) or -2) == -2
    assert len(calls) == 1  # a was retained, b recomputed


def test_maxsize_must_be_positive():
    with pytest.raises(ValueError):
        memo.Memo("t-bad", maxsize=0)


def test_disable_bypasses_storage_and_counters():
    cache = memo.Memo("t-disabled")
    previous = memo.set_enabled(False)
    try:
        calls = []
        assert cache.get_or_compute("k", lambda: calls.append(1) or 7) == 7
        assert cache.get_or_compute("k", lambda: calls.append(1) or 8) == 8
        assert len(calls) == 2
        assert len(cache) == 0
        assert cache.stats.hits == 0 and cache.stats.misses == 0
    finally:
        memo.set_enabled(previous)
    # Re-enabling resumes normal caching.
    assert cache.get_or_compute("k", lambda: 9) == 9
    assert cache.get_or_compute("k", lambda: 10) == 9


def test_set_enabled_returns_previous():
    assert memo.set_enabled(False) is True
    assert memo.set_enabled(True) is False
    assert memo.set_enabled(True) is True


def test_registry_shares_instances():
    first = memo.memo("t-shared", maxsize=10)
    second = memo.memo("t-shared", maxsize=999)
    third = memo.memo("t-shared", maxsize=3)
    assert first is second is third
    assert third.maxsize == 10  # first registration wins


def test_registry_stats_and_clear():
    cache = memo.memo("t-registry-stats")
    cache.get_or_compute("k", lambda: 1)
    cache.get_or_compute("k", lambda: 1)
    assert cache.stats.hits >= 1 and cache.stats.misses >= 1
    memo.clear_all()
    assert len(cache) == 0
    # Counters survive clear_all.
    assert cache.stats.hits >= 1 and cache.stats.misses >= 1


def test_toggle_transition_flushes_live_caches():
    # Regression: entries cached while enabled used to survive a disable/
    # re-enable cycle, so an A/B run's "cached" arm could serve state from
    # before the bypass window.
    cache = memo.Memo("t-flush-toggle")
    cache.get_or_compute("k", lambda: 1)
    assert len(cache) == 1
    memo.set_enabled(False)
    assert len(cache) == 0
    assert cache.stats.evictions == 1
    memo.set_enabled(True)
    calls = []
    assert cache.get_or_compute("k", lambda: calls.append(1) or 2) == 2
    assert calls  # recomputed, not served stale


def test_reasserting_current_state_keeps_warm_entries():
    # Forked workers re-apply the parent's (unchanged) toggle; that must
    # not cost them their inherited warm caches.
    cache = memo.Memo("t-flush-noop")
    cache.get_or_compute("k", lambda: 1)
    memo.set_enabled(True)
    assert len(cache) == 1
    assert cache.stats.evictions == 0


def test_flush_counts_evictions_clear_does_not():
    cache = memo.Memo("t-flush-vs-clear")
    cache.get_or_compute("a", lambda: 1)
    cache.get_or_compute("b", lambda: 2)
    cache.clear()
    assert len(cache) == 0 and cache.stats.evictions == 0
    cache.get_or_compute("a", lambda: 1)
    cache.flush()
    assert len(cache) == 0 and cache.stats.evictions == 1
