"""Unit tests for hierarchical span tracing (:mod:`repro.obs.tracing`)."""

import pytest

from repro.obs import tracing
from repro.obs.tracing import SpanRecord, Tracer, span, traced


@pytest.fixture
def enabled_tracer():
    """Tracing on with a fresh global tracer; restored afterwards."""
    previous = tracing.set_enabled(True)
    tracing.start_trace()
    yield tracing.tracer()
    tracing.set_enabled(previous)
    tracing.start_trace()


def test_disabled_span_is_shared_noop():
    assert not tracing.tracing_enabled()
    first = span("anything")
    second = span("anything.else")
    assert first is second  # the shared _NULL_SPAN, no allocation
    with first:
        pass
    assert tracing.records() == []


def test_span_nesting_records_parenthood(enabled_tracer):
    with span("outer"):
        with span("inner"):
            pass
        with span("inner"):
            pass
    records = tracing.records()
    assert [r.name for r in records] == ["inner", "inner", "outer"]
    outer = records[-1]
    assert outer.parent_id is None
    for inner in records[:2]:
        assert inner.parent_id == outer.span_id
        assert outer.start <= inner.start <= inner.end <= outer.end
        assert inner.duration >= 0.0


def test_span_ids_are_deterministic(enabled_tracer):
    with span("a"):
        with span("b"):
            pass
    ids = sorted(r.span_id for r in tracing.records())
    assert ids == ["s0001", "s0002"]
    # Restarting the trace restarts the counter: same workload, same ids.
    tracing.start_trace()
    with span("a"):
        with span("b"):
            pass
    assert sorted(r.span_id for r in tracing.records()) == ["s0001", "s0002"]


def test_worker_proc_prefixes_ids():
    worker = Tracer(proc="w3")
    worker.push("work")
    record = worker.pop()
    assert record.span_id == "w3:s0001"
    assert record.proc == "w3"


def test_current_span_id_tracks_stack(enabled_tracer):
    assert tracing.current_span_id() is None
    with span("outer"):
        outer_id = tracing.current_span_id()
        assert outer_id == "s0001"
        with span("inner"):
            assert tracing.current_span_id() != outer_id
        assert tracing.current_span_id() == outer_id
    assert tracing.current_span_id() is None


def test_traced_decorator(enabled_tracer):
    @traced("phase.work")
    def work(x):
        return x * 2

    assert work(21) == 42
    records = tracing.records()
    assert len(records) == 1
    assert records[0].name == "phase.work"
    assert work.__name__ == "work"  # functools.wraps preserved


def test_traced_decorator_defaults_to_qualname(enabled_tracer):
    @traced()
    def helper():
        return 1

    helper()
    assert tracing.records()[0].name.endswith("helper")


def test_traced_is_passthrough_when_disabled():
    @traced("never.recorded")
    def work():
        return "ok"

    assert work() == "ok"
    assert tracing.records() == []


def test_span_records_on_exception(enabled_tracer):
    with pytest.raises(ValueError):
        with span("failing"):
            raise ValueError("boom")
    records = tracing.records()
    assert [r.name for r in records] == ["failing"]
    # The stack is clean again: the next span is a root.
    with span("after"):
        pass
    assert tracing.records()[-1].parent_id is None


def test_drain_forgets_finished_spans(enabled_tracer):
    with span("local"):
        pass
    drained = tracing.drain()
    assert [r.name for r in drained] == ["local"]
    assert tracing.records() == []


def test_record_as_dict():
    record = SpanRecord("s0001", None, "root", 0.0, 1.5, "")
    assert record.as_dict() == {
        "id": "s0001",
        "parent": None,
        "name": "root",
        "start": 0.0,
        "end": 1.5,
        "proc": "",
    }
