"""Unified observability layer: tracing, metrics, events, and consumers.

The *production* half collects (see ``docs/OBSERVABILITY.md``):

* :mod:`repro.obs.tracing` — hierarchical spans with deterministic ids
  and a global on/off switch that makes instrumentation free when off;
* :mod:`repro.obs.metrics` — the process-wide registry of named
  counters/gauges/histograms (the single source of truth that
  :mod:`repro.utils.memo` and :mod:`repro.cq.homomorphism` report into);
* :mod:`repro.obs.events` — versioned JSONL event schema + emitter;
* :mod:`repro.obs.profiler` — sampling profiler attributing ticks to the
  open span stack.

The *consumption* half renders what was collected:

* :mod:`repro.obs.summary` — fold a trace into a per-phase
  self/cumulative time table;
* :mod:`repro.obs.export` — lossless Chrome trace-event (Perfetto) and
  Prometheus text exposition converters;
* :mod:`repro.obs.dashboard` — a dependency-free self-contained HTML
  report (flamegraph, pair-grid heatmap, tiles, incident timeline);
* :mod:`repro.obs.progress` — a live terminal progress line (rate, ETA)
  fed by the scan drivers' ``on_progress`` callbacks,
  plus the self-overwriting multi-line block ``repro top`` renders into.

The *fleet* half watches many collectors at once:

* :mod:`repro.obs.telemetry` — per-worker JSONL heartbeat streams
  (schema-v2 ``telemetry``/``lease`` frames) written durably into a
  fabric directory, with torn-line-tolerant readers;
* :mod:`repro.obs.fleet` — joins telemetry, lease files and journal
  segments into a :class:`~repro.obs.fleet.FleetSnapshot` (liveness,
  rates, steal counts, stall detection, fabric-wide ETA).

This package sits *below* the cq/core/mappings layers: it imports nothing
from them, so any module may instrument itself without import cycles.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    cache_totals,
    diff,
    registry,
    sum_matching,
)
from repro.obs.tracing import (
    SpanRecord,
    Tracer,
    current_span_id,
    drain,
    elapsed,
    records,
    set_enabled,
    span,
    start_trace,
    traced,
    tracer,
    tracing_enabled,
)
from repro.obs.events import (
    SCHEMA_VERSION,
    SUPPORTED_VERSIONS,
    drain_incidents,
    fault_event,
    lease_event,
    peek_incidents,
    read_trace,
    record_incident,
    spans_from_events,
    telemetry_event,
    timeout_event,
    trace_events,
    validate_event,
    validate_event_report,
    validate_line,
    validate_line_report,
    write_trace,
)
from repro.obs.summary import PhaseRow, TraceSummary, fold, render
from repro.obs.profiler import (
    SamplingProfiler,
    absorb_samples,
    drain_samples,
    profiling_hz,
    samples_by_name,
    start_profiling,
    stop_profiling,
)
from repro.obs.export import (
    StitchedTrace,
    chrome_trace,
    instants_from_chrome,
    prometheus_text,
    spans_from_chrome,
    stitch_worker_events,
    stitched_chrome_trace,
    write_chrome_trace,
    write_prometheus,
    write_stitched_chrome_trace,
)
from repro.obs.dashboard import (
    render_dashboard,
    verdict_counts,
    verdict_summary_line,
    write_dashboard,
)
from repro.obs.progress import LiveBlock, ProgressReporter
from repro.obs.telemetry import (
    TelemetryLog,
    TelemetryWriter,
    frame_path,
    read_fleet_telemetry,
    read_telemetry,
    trace_path,
    worker_trace_paths,
)
from repro.obs.fleet import (
    FleetSnapshot,
    WorkerStatus,
    fleet_snapshot,
    render_fleet,
)

__all__ = [
    "Counter",
    "FleetSnapshot",
    "Gauge",
    "Histogram",
    "LiveBlock",
    "MetricsRegistry",
    "PhaseRow",
    "ProgressReporter",
    "SCHEMA_VERSION",
    "SUPPORTED_VERSIONS",
    "SamplingProfiler",
    "SpanRecord",
    "StitchedTrace",
    "TelemetryLog",
    "TelemetryWriter",
    "TraceSummary",
    "Tracer",
    "WorkerStatus",
    "absorb_samples",
    "cache_totals",
    "chrome_trace",
    "current_span_id",
    "diff",
    "drain",
    "drain_incidents",
    "drain_samples",
    "elapsed",
    "fault_event",
    "fleet_snapshot",
    "fold",
    "frame_path",
    "instants_from_chrome",
    "lease_event",
    "peek_incidents",
    "profiling_hz",
    "prometheus_text",
    "read_fleet_telemetry",
    "read_telemetry",
    "read_trace",
    "record_incident",
    "records",
    "registry",
    "render",
    "render_dashboard",
    "render_fleet",
    "samples_by_name",
    "set_enabled",
    "span",
    "spans_from_chrome",
    "spans_from_events",
    "start_profiling",
    "start_trace",
    "stitch_worker_events",
    "stitched_chrome_trace",
    "stop_profiling",
    "sum_matching",
    "telemetry_event",
    "timeout_event",
    "trace_events",
    "trace_path",
    "traced",
    "tracer",
    "tracing_enabled",
    "validate_event",
    "validate_event_report",
    "validate_line",
    "validate_line_report",
    "verdict_counts",
    "verdict_summary_line",
    "worker_trace_paths",
    "write_chrome_trace",
    "write_dashboard",
    "write_prometheus",
    "write_stitched_chrome_trace",
    "write_trace",
]
