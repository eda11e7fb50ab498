"""Process-wide metrics registry: named counters, gauges and histograms.

This is the single source of truth for the library's effort accounting.
:class:`repro.utils.memo.CacheStats` is a thin view over counters
registered here, and the matcher counts ``hom.backtracks`` here directly,
so one snapshot captures a process's whole accounting state as a plain
dict.

Metric kinds
------------

* :class:`Counter` — a monotone non-negative total (``inc``);
* :class:`Gauge` — a point-in-time value (``set``), excluded from
  snapshots/deltas because last-write-wins does not aggregate;
* :class:`Histogram` — a distribution summarised as count/total (two
  underlying counters, so it rides along in snapshots and merges
  additively) plus per-process min/max.

Naming convention: dotted lowercase paths, ``<subsystem>.<metric>`` —
``cache.<cache-name>.hits``, ``hom.backtracks``, ``search.pairs_tried``,
``chase.egd_rounds.count``.  The full list lives in
``docs/OBSERVABILITY.md``.

Aggregation is snapshot/delta based and deliberately dumb:

>>> reg = MetricsRegistry()
>>> before = reg.snapshot()
>>> reg.counter("demo.work").inc(3)
>>> delta = diff(before, reg.snapshot())
>>> other = MetricsRegistry()
>>> other.merge(delta)
>>> other.counter("demo.work").value
3

Counters are plain (unlocked) Python ints: increments run under the GIL
and the library's parallelism is process-based, so per-process counters
never race.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple, Union

Number = Union[int, float]
Snapshot = Dict[str, Number]


class Counter:
    """A named monotone counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        """Add ``amount`` (default 1) to the counter."""
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Counter({self.name!r}, {self.value})"


class Gauge:
    """A named point-in-time value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0

    def set(self, value: Number) -> None:
        """Record the current value."""
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Gauge({self.name!r}, {self.value})"


class Histogram:
    """A named distribution summary.

    ``count`` and ``total`` are genuine registry counters (named
    ``<name>.count`` / ``<name>.total``) so histogram mass aggregates
    across processes through the same snapshot/merge path as every other
    counter; ``min``/``max`` are per-process only.
    """

    __slots__ = ("name", "_count", "_total", "min", "max")

    def __init__(self, name: str, count: Counter, total: Counter) -> None:
        self.name = name
        self._count = count
        self._total = total
        self.min: Optional[Number] = None
        self.max: Optional[Number] = None

    def observe(self, value: Number) -> None:
        """Record one observation."""
        self._count.inc()
        self._total.inc(value)
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def count(self) -> Number:
        return self._count.value

    @property
    def total(self) -> Number:
        return self._total.value

    @property
    def mean(self) -> float:
        """Average observation (0.0 before any observation)."""
        return self._total.value / self._count.value if self._count.value else 0.0

    def as_dict(self) -> Dict[str, Number]:
        """Summary dict: count, total, mean, min, max."""
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": 0 if self.min is None else self.min,
            "max": 0 if self.max is None else self.max,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Histogram({self.name!r}, n={self.count}, total={self.total})"


class MetricsRegistry:
    """A namespace of metrics, created on first use and shared thereafter."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """The counter registered under ``name`` (created on first use)."""
        existing = self._counters.get(name)
        if existing is None:
            existing = self._counters[name] = Counter(name)
        return existing

    def gauge(self, name: str) -> Gauge:
        """The gauge registered under ``name`` (created on first use)."""
        existing = self._gauges.get(name)
        if existing is None:
            existing = self._gauges[name] = Gauge(name)
        return existing

    def histogram(self, name: str) -> Histogram:
        """The histogram registered under ``name`` (created on first use)."""
        existing = self._histograms.get(name)
        if existing is None:
            existing = self._histograms[name] = Histogram(
                name, self.counter(f"{name}.count"), self.counter(f"{name}.total")
            )
        return existing

    def snapshot(self) -> Snapshot:
        """All counter values (histogram count/total included) as a dict."""
        return {name: c.value for name, c in self._counters.items()}

    def gauges(self) -> Snapshot:
        """All gauge values as a dict (not part of deltas)."""
        return {name: g.value for name, g in self._gauges.items()}

    def merge(self, delta: Snapshot) -> None:
        """Add a (possibly foreign) counter delta into this registry.

        Names unseen here are created.
        """
        for name, value in delta.items():
            if value:
                self.counter(name).inc(value)

    def reset(self) -> None:
        """Zero every counter and gauge, and clear histogram min/max."""
        for counter in self._counters.values():
            counter.value = 0
        for gauge in self._gauges.values():
            gauge.value = 0
        for histogram in self._histograms.values():
            histogram.min = None
            histogram.max = None

    def as_dict(self) -> Dict[str, Number]:
        """Counters and gauges flattened into one name → value dict."""
        merged: Dict[str, Number] = dict(self.snapshot())
        merged.update(self.gauges())
        return merged


_default = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _default


def diff(before: Snapshot, after: Snapshot) -> Snapshot:
    """Counter-wise ``after - before`` (names missing in ``before`` count 0)."""
    return {
        name: value - before.get(name, 0)
        for name, value in after.items()
        if value - before.get(name, 0)
    }


def sum_matching(
    snapshot: Snapshot, prefix: str = "", suffix: str = ""
) -> Number:
    """Sum the values of every metric matching the prefix/suffix filter."""
    return sum(
        value
        for name, value in snapshot.items()
        if name.startswith(prefix) and name.endswith(suffix)
    )


def cache_totals(snapshot: Snapshot) -> Tuple[Number, Number, Number]:
    """(hits, misses, evictions) summed over every ``cache.*`` metric."""
    return (
        sum_matching(snapshot, "cache.", ".hits"),
        sum_matching(snapshot, "cache.", ".misses"),
        sum_matching(snapshot, "cache.", ".evictions"),
    )
