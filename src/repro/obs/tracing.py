"""Zero-dependency hierarchical tracing: spans, span stacks, span records.

A *span* is a named interval of wall time with a parent — the span that
was active (in the same thread) when it started.  Instrumented code opens
spans with the :func:`span` context manager or the :func:`traced`
decorator; finished spans accumulate as immutable :class:`SpanRecord`
tuples on the process-wide :class:`Tracer`, from which the CLI writes
JSONL traces (:mod:`repro.obs.events`) and renders per-phase tables
(:mod:`repro.obs.summary`).

Design constraints, in order:

* **Disabled means free.**  Tracing defaults to *off* and the disabled
  path is one global check plus a shared no-op context manager — no
  allocation, no clock read — so instrumenting the hot paths costs
  <5% even at chase/match frequency (guarded by
  ``benchmarks/bench_perf.py``).
* **Deterministic span ids.**  Ids are ``s0001, s0002, ...`` in start
  order (prefixed with the process label for workers, e.g. ``w2:s0001``),
  never random or time-derived, so two runs of the same workload produce
  identical trace shapes and tests can assert on them.
* **Thread-local parenthood.**  The active-span stack is per-thread;
  concurrent threads each get a consistent ancestry.  The record list and
  id counter are shared under a lock (tracing is not a hot path *when
  enabled either* — span open/close is two clock reads and an append).
* **Process-portable records.**  ``SpanRecord`` is a NamedTuple of
  primitives, so every fabric worker writes its own trace file and
  ``repro stitch-traces`` merges them with their process labels intact.

Timestamps are ``time.perf_counter()`` offsets from the tracer's epoch
(its creation or last :func:`start_trace`), so they are monotonic and
process-relative; durations are directly comparable across processes,
absolute offsets are not.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

_enabled: bool = False


def set_enabled(enabled: bool) -> bool:
    """Globally switch tracing on or off; returns the previous setting."""
    global _enabled
    previous = _enabled
    _enabled = bool(enabled)
    return previous


def tracing_enabled() -> bool:
    """True iff spans are currently being recorded."""
    return _enabled


class SpanRecord(NamedTuple):
    """One finished span.

    ``start``/``end`` are seconds relative to the owning tracer's epoch;
    ``proc`` labels the process that produced the record (``""`` for the
    parent process, ``"w<k>"`` for worker k).
    """

    span_id: str
    parent_id: Optional[str]
    name: str
    start: float
    end: float
    proc: str = ""

    @property
    def duration(self) -> float:
        """Wall seconds spent inside the span (children included)."""
        return self.end - self.start

    def as_dict(self) -> Dict[str, object]:
        """The record as a plain dict (JSONL-friendly)."""
        return {
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "proc": self.proc,
        }


class Tracer:
    """Collects finished spans for one process."""

    def __init__(self, proc: str = "") -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.reset(proc)

    def reset(self, proc: str = "") -> None:
        """Drop all records, restart the id counter and the epoch."""
        with getattr(self, "_lock", threading.Lock()):
            self.proc = proc
            self._records: List[SpanRecord] = []
            self._next = 1
            self._epoch = time.perf_counter()
            self._local = threading.local()
            self._open_stacks: Dict[int, List[Tuple[str, str, float]]] = {}

    def _stack(self) -> List[Tuple[str, str, float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            with self._lock:
                self._open_stacks[threading.get_ident()] = stack
        return stack

    def _new_id(self) -> str:
        with self._lock:
            number = self._next
            self._next += 1
        serial = f"s{number:04d}"
        return f"{self.proc}:{serial}" if self.proc else serial

    def push(self, name: str) -> Tuple[str, str, float]:
        """Open a span: returns (span_id, name, start offset)."""
        entry = (self._new_id(), name, time.perf_counter() - self._epoch)
        self._stack().append(entry)
        return entry

    def pop(self) -> SpanRecord:
        """Close the innermost open span of this thread and record it."""
        stack = self._stack()
        span_id, name, start = stack.pop()
        parent_id = stack[-1][0] if stack else None
        record = SpanRecord(
            span_id, parent_id, name,
            start, time.perf_counter() - self._epoch, self.proc,
        )
        with self._lock:
            self._records.append(record)
        return record

    def current_span_id(self) -> Optional[str]:
        """The id of this thread's innermost open span, if any."""
        stack = self._stack()
        return stack[-1][0] if stack else None

    def open_leaves(self) -> List[Tuple[str, str]]:
        """The innermost open ``(span_id, name)`` of every thread.

        This is the sampling profiler's view (:mod:`repro.obs.profiler`):
        a sampler thread calls it at each tick and attributes the tick to
        the spans it returns.  Reading a stack another thread is pushing
        to is GIL-safe (list append/pop are atomic); a pop racing the
        read at worst loses that single sample.
        """
        with self._lock:
            stacks = list(self._open_stacks.values())
        leaves: List[Tuple[str, str]] = []
        for stack in stacks:
            try:
                span_id, name, _start = stack[-1]
            except IndexError:
                continue
            leaves.append((span_id, name))
        return leaves

    def elapsed(self) -> float:
        """Seconds since this trace's epoch (the span-time coordinate).

        Instant events stamped with this value land on the same
        timeline as spans in a Chrome trace export.
        """
        return time.perf_counter() - self._epoch

    def records(self) -> List[SpanRecord]:
        """All finished spans so far, in completion order."""
        with self._lock:
            return list(self._records)

    def drain(self) -> List[SpanRecord]:
        """Return all finished spans and forget them (epoch/ids continue)."""
        with self._lock:
            records, self._records = self._records, []
        return records


_tracer = Tracer()


def tracer() -> Tracer:
    """The process-wide tracer."""
    return _tracer


class _ActiveSpan:
    """Context manager recording one span on the global tracer."""

    __slots__ = ("_name",)

    def __init__(self, name: str) -> None:
        self._name = name

    def __enter__(self) -> "_ActiveSpan":
        _tracer.push(self._name)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _tracer.pop()


class _NullSpan:
    """Shared no-op span used while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()


def span(name: str):
    """Open a named span around a ``with`` block.

    While tracing is disabled this returns a shared no-op context manager
    and touches nothing else — safe on the hottest paths.
    """
    if not _enabled:
        return _NULL_SPAN
    return _ActiveSpan(name)


def traced(name: Optional[str] = None) -> Callable:
    """Decorator form of :func:`span`; the span is named after the function.

    >>> @traced("phase.work")
    ... def work():
    ...     return 42
    >>> work()
    42
    """

    def decorate(fn: Callable) -> Callable:
        label = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not _enabled:
                return fn(*args, **kwargs)
            with _ActiveSpan(label):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


def start_trace(proc: str = "") -> None:
    """Reset the global tracer for a fresh trace (new epoch, ids from 1)."""
    _tracer.reset(proc)


def drain() -> List[SpanRecord]:
    """Drain the global tracer's finished spans."""
    return _tracer.drain()


def records() -> List[SpanRecord]:
    """Peek at the global tracer's finished spans."""
    return _tracer.records()


def current_span_id() -> Optional[str]:
    """The innermost open span id of the calling thread, if any."""
    return _tracer.current_span_id()


def elapsed() -> float:
    """Seconds since the global tracer's epoch."""
    return _tracer.elapsed()
