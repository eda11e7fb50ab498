"""Thread-safety hammer tests for the bounded memo caches.

The equivalence service handles concurrent requests on a thread pool, so
the process-wide memo caches see genuinely concurrent get/put/flush/
clear traffic.  Before the single-lock fix, concurrent eviction could
corrupt the OrderedDict (KeyError out of ``popitem``/``move_to_end``) and
stats updates could be lost; these tests hammer exactly those paths.
"""

from __future__ import annotations

import threading

import pytest

from repro.utils.memo import Memo, memo, set_enabled


def _hammer(worker, n_threads: int = 8) -> list:
    """Run ``worker(index)`` on N threads at once; re-raise any error."""
    errors: list = []
    barrier = threading.Barrier(n_threads)

    def run(index: int) -> None:
        try:
            barrier.wait()
            worker(index)
        except Exception as exc:  # pragma: no cover - only on regression
            errors.append(exc)

    threads = [
        threading.Thread(target=run, args=(i,)) for i in range(n_threads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return errors


def test_concurrent_get_or_compute_with_eviction_pressure():
    """Many threads over a tiny cache: constant eviction, no corruption."""
    cache = Memo("test.threads.evict", maxsize=4)
    rounds = 400

    def worker(index: int) -> None:
        for i in range(rounds):
            key = (index * rounds + i) % 16
            value = cache.get_or_compute(key, lambda k=key: k * 2)
            assert value == key * 2

    errors = _hammer(worker)
    assert errors == []
    assert len(cache) <= 4


def test_concurrent_lookups_against_flush_and_clear():
    """Lookups racing flush/clear never corrupt the cache."""
    cache = Memo("test.threads.flush", maxsize=16)

    def worker(index: int) -> None:
        for i in range(300):
            if index == 0 and i % 7 == 0:
                cache.flush()
            elif index == 2 and i % 13 == 0:
                cache.clear()
            else:
                key = i % 32
                assert cache.get_or_compute(key, lambda k=key: k + 1) == key + 1

    errors = _hammer(worker)
    assert errors == []
    assert len(cache) <= cache.maxsize


def test_stats_account_for_every_lookup():
    """hits + misses == total lookups even under contention."""
    cache = Memo("test.threads.stats", maxsize=1024)
    n_threads, rounds = 8, 500

    def worker(index: int) -> None:
        for i in range(rounds):
            cache.get_or_compute(i % 64, lambda v=i: v)

    errors = _hammer(worker, n_threads)
    assert errors == []
    assert cache.stats.hits + cache.stats.misses == n_threads * rounds


def test_concurrent_registry_registration_shares_one_instance():
    """Threads racing the first memo(name) call all get the same cache."""
    seen = []
    lock = threading.Lock()

    def worker(index: int) -> None:
        cache = memo("test.threads.registry", maxsize=32)
        with lock:
            seen.append(cache)

    errors = _hammer(worker)
    assert errors == []
    assert len({id(cache) for cache in seen}) == 1


def test_toggle_during_lookups_never_serves_stale_entries():
    """set_enabled transitions racing lookups stay consistent."""
    cache = Memo("test.threads.toggle", maxsize=32)

    def worker(index: int) -> None:
        for i in range(200):
            if index == 0 and i % 19 == 0:
                set_enabled(False)
                set_enabled(True)
            else:
                key = i % 8
                assert cache.get_or_compute(key, lambda k=key: k) == key

    try:
        errors = _hammer(worker)
    finally:
        set_enabled(True)
    assert errors == []


@pytest.mark.parametrize("maxsize", [1, 3])
def test_eviction_never_overflows_bound(maxsize):
    cache = Memo(f"test.threads.bound{maxsize}", maxsize=maxsize)

    def worker(index: int) -> None:
        for i in range(300):
            cache.get_or_compute((index, i), lambda: i)
            assert len(cache) <= maxsize

    errors = _hammer(worker)
    assert errors == []
