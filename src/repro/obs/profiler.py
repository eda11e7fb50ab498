"""Low-overhead sampling profiler attributing ticks to open spans.

A single daemon thread wakes ``hz`` times per second and asks the tracer
which spans are currently open (:meth:`repro.obs.tracing.Tracer.open_leaves`);
each tick increments a counter keyed by the innermost open span's id.
The sample table is a plain ``span_id → tick count`` dict of primitives;
each stopped sampler's ticks are merged into the process-global table
with :func:`absorb_samples`, which adds like a metrics delta.

Ticks taken while *no* span is open are recorded under :data:`IDLE` —
they still count toward ``ticks``, so coverage (attributed / total) is
an honest measure of how much of the run the trace explains.

Design constraints:

* **Cheap.**  A tick is one lock-guarded dict read plus a few dict
  increments; ``benchmarks/bench_perf.py`` measures the overhead at the
  default 97 Hz on the E1 scan against a 5% budget.
* **Prime default rate.**  97 Hz (not 100) so the sampler cannot phase-
  lock with periodic work and systematically over- or under-sample a
  phase.
* **Tracing-coupled.**  Samples attach to *spans*, so the profiler is
  only useful while tracing is enabled; the CLI's ``--profile-hz`` turns
  both on.  With tracing off every tick lands on :data:`IDLE`.

The per-span counts become ``self_samples`` when merged into the span
tree: a tick is charged to the innermost open span only, so sample
counts are *self* (flat) attribution, the sampling analogue of the
fold's self time (:mod:`repro.obs.summary`).
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.obs import tracing as _tracing
from repro.obs.tracing import SpanRecord

#: Sample key for ticks taken while no span was open in any thread.
IDLE = "<idle>"

#: Default sampling rate (Hz).  Prime, so periodic workloads cannot
#: phase-lock with the sampler.
DEFAULT_HZ = 97.0

Samples = Dict[str, int]


class SamplingProfiler:
    """One sampling thread over one tracer.

    >>> profiler = SamplingProfiler(hz=500)
    >>> profiler.hz
    500.0
    """

    def __init__(
        self, hz: float = DEFAULT_HZ, tracer: Optional[_tracing.Tracer] = None
    ) -> None:
        if hz <= 0:
            raise ValueError(f"sampling rate must be > 0 Hz, got {hz!r}")
        self.hz = float(hz)
        self.interval = 1.0 / self.hz
        self._tracer = tracer if tracer is not None else _tracing.tracer()
        self._samples: Samples = {}
        self.ticks = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def sample_once(self) -> None:
        """Take one sample tick (also the unit the sampler thread runs)."""
        leaves = self._tracer.open_leaves()
        self.ticks += 1
        if not leaves:
            self._samples[IDLE] = self._samples.get(IDLE, 0) + 1
            return
        for span_id, _name in leaves:
            self._samples[span_id] = self._samples.get(span_id, 0) + 1

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample_once()

    @property
    def running(self) -> bool:
        """True while the sampler thread is alive."""
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "SamplingProfiler":
        """Start the daemon sampling thread (idempotent)."""
        if not self.running:
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, name="repro-sampler", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> Samples:
        """Stop sampling and return the accumulated sample table."""
        if self._thread is not None:
            self._stop.set()
            self._thread.join()
            self._thread = None
        return dict(self._samples)


# Module-level profiler mirroring the tracing API: one active sampler per
# process, its samples accumulated in a process-global table.
_profiler: Optional[SamplingProfiler] = None
_samples: Samples = {}


def start_profiling(hz: float = DEFAULT_HZ) -> SamplingProfiler:
    """Start (or restart) the process-wide sampler at ``hz`` samples/s."""
    global _profiler
    if _profiler is not None:
        stop_profiling()
    _profiler = SamplingProfiler(hz=hz)
    return _profiler.start()


def stop_profiling() -> Samples:
    """Stop the process-wide sampler; its samples join the global table."""
    global _profiler
    if _profiler is None:
        return {}
    collected = _profiler.stop()
    _profiler = None
    absorb_samples(collected)
    return collected


def profiling_hz() -> Optional[float]:
    """The active process-wide sampling rate, or None when not profiling."""
    return None if _profiler is None else _profiler.hz


def samples() -> Samples:
    """A copy of the process-global sample table."""
    return dict(_samples)


def drain_samples() -> Samples:
    """Return the process-global sample table and empty it."""
    global _samples
    drained, _samples = _samples, {}
    return drained


def absorb_samples(delta: Mapping[str, int]) -> None:
    """Merge a sample table into this process's; equal keys add,
    exactly like metric deltas."""
    for span_id, count in delta.items():
        if count:
            _samples[span_id] = _samples.get(span_id, 0) + count


def attach_samples(
    records: Sequence[SpanRecord], sample_table: Mapping[str, int]
) -> Dict[str, int]:
    """``span_id → self_samples`` restricted to spans present in ``records``.

    The lossy remainder (ticks on spans that were drained before the
    records were collected, plus :data:`IDLE`) is preserved under
    :data:`IDLE` so totals still reconcile.
    """
    known = {record.span_id for record in records}
    attached: Dict[str, int] = {}
    stray = 0
    for span_id, count in sample_table.items():
        if span_id in known:
            attached[span_id] = count
        else:
            stray += count
    if stray:
        attached[IDLE] = attached.get(IDLE, 0) + stray
    return attached


def samples_by_name(
    records: Sequence[SpanRecord], sample_table: Mapping[str, int]
) -> Dict[str, int]:
    """Aggregate self-samples by span *name* (the fold's phase key).

    Unattributable ticks stay under :data:`IDLE`.
    """
    names = {record.span_id: record.name for record in records}
    by_name: Dict[str, int] = {}
    for span_id, count in sample_table.items():
        name = names.get(span_id, IDLE)
        by_name[name] = by_name.get(name, 0) + count
    return by_name
