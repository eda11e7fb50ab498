"""Unit tests for the trace fold/summary (:mod:`repro.obs.summary`)."""

import pytest

from repro.obs.summary import PhaseRow, fold, render
from repro.obs.tracing import SpanRecord


def _record(span_id, parent, name, start, end, proc=""):
    return SpanRecord(span_id, parent, name, start, end, proc)


def test_fold_self_and_cumulative():
    # root [0, 10] with children a [1, 4] and b [5, 9]; a has child c [2, 3].
    records = [
        _record("s0004", "s0001", "b", 5.0, 9.0),
        _record("s0003", "s0002", "c", 2.0, 3.0),
        _record("s0002", "s0001", "a", 1.0, 4.0),
        _record("s0001", None, "root", 0.0, 10.0),
    ]
    summary = fold(records)
    by_name = {row.name: row for row in summary.rows}
    assert by_name["root"] == PhaseRow("root", 1, pytest.approx(3.0), pytest.approx(10.0))
    assert by_name["a"] == PhaseRow("a", 1, pytest.approx(2.0), pytest.approx(3.0))
    assert by_name["b"].self_s == pytest.approx(4.0)
    assert by_name["c"].self_s == pytest.approx(1.0)
    # Self times tile the trace: they sum to the root duration.
    assert summary.total_self_s == pytest.approx(10.0)
    assert summary.wall_s == pytest.approx(10.0)
    assert summary.processes == 1


def test_fold_aggregates_repeated_phase_names():
    records = [
        _record("s0002", "s0001", "step", 0.0, 1.0),
        _record("s0003", "s0001", "step", 1.0, 3.0),
        _record("s0001", None, "root", 0.0, 4.0),
    ]
    summary = fold(records)
    step = next(row for row in summary.rows if row.name == "step")
    assert step.calls == 2
    assert step.cumulative_s == pytest.approx(3.0)
    assert step.self_s == pytest.approx(3.0)


def test_fold_clamps_negative_self_time():
    # Merged clocks can make children appear to exceed the parent.
    records = [
        _record("s0002", "s0001", "child", 0.0, 5.0),
        _record("s0001", None, "root", 0.0, 1.0),
    ]
    summary = fold(records)
    root = next(row for row in summary.rows if row.name == "root")
    assert root.self_s == 0.0


def test_fold_rows_sorted_by_descending_self_time():
    records = [
        _record("s0001", None, "small", 0.0, 1.0),
        _record("s0002", None, "large", 0.0, 5.0),
    ]
    assert [row.name for row in fold(records).rows] == ["large", "small"]


def test_fold_multi_process_totals():
    records = [
        _record("s0001", None, "root", 0.0, 2.0, proc=""),
        _record("w0:s0001", None, "scan", 0.0, 2.0, proc="w0"),
        _record("w1:s0001", None, "scan", 0.0, 1.0, proc="w1"),
    ]
    summary = fold(records)
    assert summary.processes == 3
    # CPU seconds across processes exceed the longest root's wall time.
    assert summary.total_self_s == pytest.approx(5.0)
    assert summary.wall_s == pytest.approx(2.0)


def test_fold_empty_trace():
    summary = fold([])
    assert summary.rows == []
    assert summary.total_self_s == 0.0
    assert summary.wall_s == 0.0


def test_render_single_process():
    records = [
        _record("s0002", "s0001", "child", 1.0, 3.0),
        _record("s0001", None, "root", 0.0, 4.0),
    ]
    text = render(records, title="timings")
    assert text.startswith("timings\n")
    assert "phase" in text and "self s" in text and "cum s" in text
    assert "child" in text and "root" in text
    assert "TOTAL" in text and "(cpu)" not in text
    assert "100.0%" in text


def test_render_multi_process_labels_cpu_total():
    records = [
        _record("s0001", None, "root", 0.0, 1.0, proc=""),
        _record("w0:s0001", None, "scan", 0.0, 1.0, proc="w0"),
    ]
    text = render(records)
    assert "TOTAL (cpu)" in text
    assert "across 2 processes" in text


def test_fold_of_incident_interleaved_trace():
    # A full event stream — spans interleaved with fault/retry/timeout
    # incidents — folds identically to the bare span records: incidents
    # pass through spans_from_events untouched and fold ignores them.
    # (``retry`` records come from traces written by earlier versions.)
    from repro.obs.events import (
        fault_event,
        spans_from_events,
        timeout_event,
        trace_events,
    )

    records = [
        _record("s0002", "s0001", "pair", 1.0, 3.0),
        _record("s0001", None, "scan", 0.0, 4.0),
    ]
    incidents = [
        fault_event("fabric.cell", "kill", key="0", attempt=0),
        {"v": 1, "type": "retry", "index": 1, "attempt": 2, "kind": "crash",
         "delay": 0.01},
        timeout_event("pair", i=0, j=1, seconds=0.5),
    ]
    stream = trace_events(records, counters={"x": 1}, incidents=incidents)
    summary = fold(spans_from_events(stream))
    assert summary == fold(records)
    assert summary.wall_s == pytest.approx(4.0)
    by_name = {row.name: row for row in summary.rows}
    assert by_name["scan"].self_s == pytest.approx(2.0)
    assert by_name["pair"].self_s == pytest.approx(2.0)


def test_fold_of_stitched_resumed_scan_trace():
    # A resumed scan: segment 1 ends mid-run (timeout incident recorded),
    # segment 2 restarts span ids at s0001.  Stitching the journals and
    # folding must aggregate both segments' phases instead of crossing
    # segment boundaries or dropping the repeated ids.
    from repro.obs.events import spans_from_events, timeout_event, trace_events

    segment1 = trace_events(
        [
            _record("s0002", "s0001", "pair", 0.5, 1.5),
            _record("s0001", None, "scan", 0.0, 2.0),
        ],
        incidents=[timeout_event("scan", seconds=2.0)],
    )
    segment2 = trace_events(
        [
            _record("s0002", "s0001", "pair", 0.25, 0.75),
            _record("s0001", None, "scan", 0.0, 1.0),
        ],
    )
    summary = fold(spans_from_events(segment1 + segment2))
    scan = next(row for row in summary.rows if row.name == "scan")
    pair = next(row for row in summary.rows if row.name == "pair")
    assert scan.calls == 2 and pair.calls == 2
    assert pair.cumulative_s == pytest.approx(1.5)
    assert scan.self_s == pytest.approx(1.5)
    # Self times still tile: each segment's root covers its own children.
    assert summary.total_self_s == pytest.approx(3.0)
