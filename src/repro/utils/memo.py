"""Bounded, stats-carrying memoization caches.

The hot paths of the dominance search recompute pure functions of
immutable, hashable inputs — canonical databases, chased canonicals, key
EGDs, gadget families, view answers — thousands of times per scan.  This
module provides a small cache layer for them:

* :class:`Memo` — a bounded LRU cache with hit/miss/eviction counters
  (kept as ``cache.<name>.*`` metrics in :mod:`repro.obs.metrics`);
* a process-wide named registry (:func:`memo`) so call sites share caches
  and the benchmarks can clear all of them at once;
* a global enable switch (:func:`set_enabled`) so the baseline of
  ``benchmarks/bench_perf.py`` and the unit tests can A/B the cached
  against the uncached implementation — while disabled, every lookup
  bypasses storage entirely and counts neither hits nor misses.  Nothing
  in the library itself flips it: every cached function is pure, so a
  cache cannot change an answer.

Toggling the switch *flushes* every live cache: entries stored under one
regime are never served under the other, so an A/B run cannot leak warm
state from the arm it is supposed to be measuring against.

Caches are per-process.  Under the ``fork`` start method, worker
processes inherit the parent's warm caches (and switch) and keep their
own counters from there; under ``spawn`` they start cold, with caches
enabled.

Caches are also *thread-safe*: the equivalence service
(:mod:`repro.service`) handles concurrent requests on a thread pool, and
every request hammers the same process-wide caches.  Each :class:`Memo`
guards its storage, LRU bookkeeping and stats updates with a single
re-entrant lock; ``compute`` callbacks run *outside* the lock (they may
recurse into other — or the same — caches), so two threads missing the
same key may both compute it, with one result winning.  That is the
standard memo trade-off: duplicated work, never corrupted state.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable

from repro.obs import metrics as _metrics

_MISSING = object()

_enabled: bool = True

# Every constructed Memo, registered or not, so the enable switch can
# flush direct instances too.  Weak references: a test-local cache dies
# with its test instead of accumulating here.
_instances: "weakref.WeakSet[Memo]" = weakref.WeakSet()


def set_enabled(enabled: bool) -> bool:
    """Globally enable or disable all memo caches; returns the old setting.

    A state *transition* (on→off or off→on) flushes every live cache:
    whatever was stored under the previous regime is dropped (and counted
    as evictions), so re-enabling never serves entries cached before the
    bypass window.  Re-asserting the current state is a no-op.
    """
    global _enabled
    with _registry_lock:
        previous = _enabled
        _enabled = bool(enabled)
        if _enabled != previous:
            for cache in list(_instances):
                cache.flush()
        return previous


class CacheStats:
    """Hit/miss/eviction counters for one cache.

    A read-only view over the process-wide metrics registry
    (:mod:`repro.obs.metrics`): the cache named ``foo`` owns the counters
    ``cache.foo.hits`` / ``cache.foo.misses`` / ``cache.foo.evictions``.
    Two caches constructed under the same name share counters.
    """

    __slots__ = ("_hits", "_misses", "_evictions")

    def __init__(self, name: str) -> None:
        registry = _metrics.registry()
        self._hits = registry.counter(f"cache.{name}.hits")
        self._misses = registry.counter(f"cache.{name}.misses")
        self._evictions = registry.counter(f"cache.{name}.evictions")

    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    @property
    def evictions(self) -> int:
        return self._evictions.value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CacheStats(hits={self.hits}, misses={self.misses}, evictions={self.evictions})"


class Memo:
    """A bounded LRU cache mapping hashable keys to computed values.

    ``get_or_compute`` is the single access point: on a hit the stored
    value is returned (and refreshed in LRU order), on a miss ``compute``
    runs and its result — including ``None`` — is stored.  When the memo
    layer is disabled the call degrades to ``compute()`` with no storage
    and no counter updates.
    """

    __slots__ = ("name", "maxsize", "stats", "_data", "_lock", "__weakref__")

    def __init__(self, name: str, maxsize: int = 4096) -> None:
        if maxsize < 1:
            raise ValueError(f"memo {name!r}: maxsize must be positive")
        self.name = name
        self.maxsize = maxsize
        self.stats = CacheStats(name)
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        # One re-entrant lock guards storage, LRU order, eviction and the
        # stats counters together; RLock because flush() may run inside a
        # holder's own critical section (set_enabled during a lookup).
        self._lock = threading.RLock()
        _instances.add(self)

    def get_or_compute(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, computing and storing on miss.

        Thread-safe; ``compute`` runs outside the lock, so concurrent
        misses on the same key may duplicate work (last store wins).
        """
        if not _enabled:
            return compute()
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is not _MISSING:
                self._data.move_to_end(key)
                self.stats._hits.inc()
                return value
            self.stats._misses.inc()
        value = compute()
        with self._lock:
            # The layer may have been disabled (and flushed) while we
            # computed; storing now would leak an entry into the bypass
            # window the flush was supposed to clear.
            if not _enabled:
                return value
            self._data[key] = value
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.stats._evictions.inc()
        return value

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def clear(self) -> None:
        """Drop all entries (counters are kept)."""
        with self._lock:
            self._data.clear()

    def flush(self) -> None:
        """Drop all entries, *counting* each as an eviction.

        Unlike :meth:`clear` (an accounting-neutral reset used between
        experiments), a flush is capacity/consistency pressure and shows
        up in ``cache.<name>.evictions``.
        """
        with self._lock:
            dropped = len(self._data)
            self._data.clear()
            if dropped:
                self.stats._evictions.inc(dropped)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Memo({self.name!r}, {len(self._data)}/{self.maxsize}, {self.stats!r})"


_registry: Dict[str, Memo] = {}
_registry_lock = threading.Lock()


def memo(name: str, maxsize: int = 4096) -> Memo:
    """The process-wide cache registered under ``name`` (created on first use).

    Later registrations share the first instance and its bound.
    Registration is thread-safe: two threads racing the first lookup of a
    name get the same instance.
    """
    with _registry_lock:
        cache = _registry.get(name)
        if cache is None:
            cache = Memo(name, maxsize=maxsize)
            _registry[name] = cache
        return cache


def clear_all() -> None:
    """Empty every registered cache (counters are kept)."""
    for cache in _registry.values():
        cache.clear()
