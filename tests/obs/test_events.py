"""Unit tests for the JSONL event schema (:mod:`repro.obs.events`)."""

import json

from repro.obs import events
from repro.obs.events import (
    SCHEMA_VERSION,
    counter_event,
    read_trace,
    span_events,
    trace_events,
    validate_event,
    validate_line,
    verdict_event,
    write_trace,
)
from repro.obs.tracing import SpanRecord


def _record(span_id="s0001", parent=None, name="root", start=0.0, end=1.0, proc=""):
    return SpanRecord(span_id, parent, name, start, end, proc)


def test_span_events_are_schema_valid():
    start, end = span_events(_record())
    assert validate_event(start) == []
    assert validate_event(end) == []
    assert start["type"] == "span_start" and start["parent"] is None
    assert end["type"] == "span_end" and end["dur"] == 1.0


def test_counter_and_verdict_events_are_schema_valid():
    assert validate_event(counter_event("cache.evaluate.hits", 12)) == []
    assert validate_event(verdict_event(found=True)) == []
    full = verdict_event(found=False, i=0, j=1, isomorphic=False, consistent=True)
    assert validate_event(full) == []
    assert full["i"] == 0 and full["consistent"] is True


def test_validate_rejects_non_object():
    assert validate_event([1, 2]) != []
    assert validate_event("x") != []


def test_validate_rejects_wrong_version():
    event = counter_event("x", 1)
    event["v"] = 99
    assert any("version" in err for err in validate_event(event))


def test_validate_rejects_unknown_type():
    assert any(
        "unknown event type" in err
        for err in validate_event({"v": SCHEMA_VERSION, "type": "mystery"})
    )


def test_validate_rejects_missing_required_field():
    event = counter_event("x", 1)
    del event["value"]
    assert any("missing required field 'value'" in err for err in validate_event(event))


def test_validate_rejects_wrong_field_type():
    event = counter_event("x", 1)
    event["value"] = "not-a-number"
    assert any("expected" in err for err in validate_event(event))


def test_validate_closes_bool_int_trap():
    # A bool is an int subclass; the schema must not accept True as a number.
    event = counter_event("x", 1)
    event["value"] = True
    assert validate_event(event) != []
    # And conversely 1 is not an acceptable "found".
    verdict = verdict_event(found=True)
    verdict["found"] = 1
    assert validate_event(verdict) != []


def test_validate_rejects_unexpected_field():
    event = counter_event("x", 1)
    event["surprise"] = 7
    assert any("unexpected field" in err for err in validate_event(event))


def test_validate_line_catches_bad_json():
    assert any("not valid JSON" in err for err in validate_line("{nope"))
    assert validate_line(json.dumps(counter_event("x", 1))) == []


def test_trace_events_ordering():
    records = [
        _record("s0002", "s0001", "child", 0.1, 0.4),
        _record("s0001", None, "root", 0.0, 1.0),
        _record("w0:s0001", None, "work", 0.0, 0.3, proc="w0"),
    ]
    stream = trace_events(records, counters={"b": 2, "a": 1}, verdicts=[verdict_event(True)])
    # Within each proc, events are time-ordered with starts before ends at ties.
    parent_stream = [(e["type"], e["id"]) for e in stream if e.get("proc") == ""]
    assert parent_stream == [
        ("span_start", "s0001"),
        ("span_start", "s0002"),
        ("span_end", "s0002"),
        ("span_end", "s0001"),
    ]
    # Verdicts come after spans, counters last and name-sorted.
    assert stream[-3]["type"] == "search_verdict"
    assert [e["name"] for e in stream[-2:]] == ["a", "b"]
    assert all(validate_event(e) == [] for e in stream)


def test_write_and_read_trace_round_trip(tmp_path):
    path = tmp_path / "trace.jsonl"
    records = [_record(), _record("s0002", "s0001", "child", 0.2, 0.8)]
    count = write_trace(
        path, records, counters={"search.pairs_tried": 4}, verdicts=[verdict_event(False)]
    )
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == count == 2 * len(records) + 1 + 1
    assert all(validate_line(line) == [] for line in lines)
    parsed = read_trace(path)
    assert parsed == trace_events(
        records, counters={"search.pairs_tried": 4}, verdicts=[verdict_event(False)]
    )


LEGACY_RETRY = {
    "v": 1, "type": "retry", "index": 3, "attempt": 1, "kind": "crash",
    "delay": 0.05,
}


def test_every_schema_type_has_an_emitter_example():
    # Guard against the schema drifting from the emitters: every declared
    # event type must be producible and valid.  ``retry`` has no emitter
    # any more; its example is a record as earlier versions wrote it,
    # which must keep validating.
    start, end = span_events(_record())
    by_type = {
        "span_start": start,
        "span_end": end,
        "counter": counter_event("x", 0),
        "search_verdict": verdict_event(found=True),
        "fault": events.fault_event("fabric.cell", "kill", key="0", attempt=0),
        "retry": LEGACY_RETRY,
        "timeout": events.timeout_event("pair", i=0, j=1, seconds=0.5),
        "telemetry": events.telemetry_event(
            "w1", seq=0, wall=1.0, phase="scan"
        ),
        "lease": events.lease_event("acquire", owner="w1", shard=0, wall=1.0),
    }
    assert set(by_type) == set(events.EVENT_TYPES)
    for event in by_type.values():
        assert validate_event(event) == []


def test_lenient_demotes_unknown_optional_field_to_warning():
    event = counter_event("x", 1)
    event["surprise"] = 7
    # Strict: an error.  Lenient: a warning, not an error.
    assert validate_event(event) != []
    assert events.validate_event(event, lenient=True) == []
    errors, warnings = events.validate_event_report(event, lenient=True)
    assert errors == []
    assert any("surprise" in w for w in warnings)


def test_lenient_still_rejects_real_violations():
    event = counter_event("x", 1)
    del event["value"]
    event["extra"] = "fine"
    errors, warnings = events.validate_event_report(event, lenient=True)
    assert any("missing required field 'value'" in e for e in errors)
    assert any("extra" in w for w in warnings)
    # Unknown types and bad field types stay errors even in lenient mode.
    assert events.validate_event(
        {"v": SCHEMA_VERSION, "type": "mystery"}, lenient=True
    ) != []
    bad = counter_event("x", 1)
    bad["value"] = "nan"
    assert events.validate_event(bad, lenient=True) != []


def test_validate_line_lenient_path():
    event = counter_event("x", 1)
    event["annotation"] = "v1.1 emitter"
    line = json.dumps(event)
    assert events.validate_line(line) != []
    assert events.validate_line(line, lenient=True) == []
    errors, warnings = events.validate_line_report(line, lenient=True)
    assert errors == [] and warnings != []


def test_spans_from_events_round_trips_a_trace():
    records = [
        _record("s0002", "s0001", "child", 0.2, 0.8),
        _record("s0001", None, "root", 0.0, 1.0),
        _record("w0:s0001", None, "work", 0.0, 0.3, proc="w0"),
    ]
    recovered = events.spans_from_events(trace_events(records))
    # Completion (span_end) order within each proc; same record contents.
    assert sorted(recovered) == sorted(records)


def test_spans_from_events_stitched_segments_repeat_ids():
    # A resumed scan's trace: two journal segments concatenated, each
    # restarting span ids at s0001.
    segment1 = trace_events([_record("s0001", None, "scan", 0.0, 1.0)])
    segment2 = trace_events([_record("s0001", None, "scan", 0.0, 2.0)])
    recovered = events.spans_from_events(segment1 + segment2)
    assert len(recovered) == 2
    assert [r.end for r in recovered] == [1.0, 2.0]
    # The repeated id is disambiguated so consumers keying on span ids
    # (fold, flamegraph, sample attribution) see two distinct spans.
    assert [r.span_id for r in recovered] == ["s0001", "s0001#2"]


def test_spans_from_events_drops_unmatched_and_orphans():
    stream = [
        {"v": SCHEMA_VERSION, "type": "span_start", "id": "s0001",
         "name": "truncated", "parent": None, "t": 0.0, "proc": ""},
        {"v": SCHEMA_VERSION, "type": "span_end", "id": "zzz",
         "name": "orphan", "t": 1.0, "dur": 1.0, "proc": ""},
        counter_event("x", 1),
    ]
    assert events.spans_from_events(stream) == []


def test_telemetry_event_carries_optional_fields_and_validates():
    frame = events.telemetry_event(
        "host-1", seq=3, wall=12.5, phase="scan", pid=44, shard=7,
        generation=1, cells_done=12, cells_total=40, rate=3.4, ttl=30.0,
        uptime=9.0, metrics={"fabric.cells.scanned": 12},
    )
    assert events.validate_event(frame) == []
    assert frame["v"] == SCHEMA_VERSION
    assert frame["shard"] == 7 and frame["metrics"] == {
        "fabric.cells.scanned": 12
    }
    # None-valued optionals are omitted, not serialised as null.
    bare = events.telemetry_event("host-1", seq=0, wall=1.0, phase="idle")
    assert "shard" not in bare and "rate" not in bare


def test_telemetry_event_rejects_unknown_phase():
    import pytest

    with pytest.raises(ValueError, match="unknown telemetry phase"):
        events.telemetry_event("w", seq=0, wall=0.0, phase="zombie")


def test_lease_event_validates_and_rejects_unknown_action():
    import pytest

    event = events.lease_event(
        "steal", owner="w2", shard=5, wall=9.0, generation=1, t=0.25
    )
    assert events.validate_event(event) == []
    assert event["action"] == "steal" and event["t"] == 0.25
    with pytest.raises(ValueError, match="unknown lease action"):
        events.lease_event("borrow", owner="w2", shard=5, wall=9.0)


def test_schema_v1_events_still_validate():
    # A v1 trace (pre-fleet) must keep validating under the v2 checker.
    old = counter_event("x", 1)
    old["v"] = 1
    assert validate_event(old) == []
    assert 1 in events.SUPPORTED_VERSIONS and SCHEMA_VERSION == 2


def test_unsupported_future_version_is_rejected():
    event = counter_event("x", 1)
    event["v"] = 3
    assert any("unsupported schema version" in e for e in validate_event(event))


def test_peek_incidents_reads_without_draining():
    events.drain_incidents()
    try:
        events.record_incident(
            events.lease_event("acquire", owner="w1", shard=0, wall=1.0)
        )
        peeked = events.peek_incidents()
        assert [e["type"] for e in peeked] == ["lease"]
        # Still there: peeking must not consume the buffer.
        assert events.peek_incidents() == peeked
        assert [e["type"] for e in events.drain_incidents()] == ["lease"]
        assert events.peek_incidents() == []
    finally:
        events.drain_incidents()
