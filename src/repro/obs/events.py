"""Structured JSONL event log with a versioned schema.

A trace file is a sequence of JSON objects, one per line.  Every line
carries ``"v"`` (the schema version, currently 2; v1 traces remain
valid — see :data:`SUPPORTED_VERSIONS`) and ``"type"``; the remaining
fields depend on the type:

``span_start``
    ``{"v": 1, "type": "span_start", "id": "s0001", "name": "theorem13",
    "parent": null, "t": 0.0001, "proc": ""}``

``span_end``
    ``{"v": 1, "type": "span_end", "id": "s0001", "name": "theorem13",
    "t": 0.42, "dur": 0.4199, "proc": ""}``

``counter``
    ``{"v": 1, "type": "counter", "name": "cache.evaluate.hits",
    "value": 1234}`` — final counter totals, emitted once per trace.

``search_verdict``
    ``{"v": 1, "type": "search_verdict", "found": true, "i": 0, "j": 1,
    "isomorphic": true, "consistent": true}`` — one per scanned pair
    (``i``/``j``/``isomorphic``/``consistent`` are optional: a plain
    dominance search has no pair grid or isomorphism baseline; the
    optional ``verdict`` string distinguishes ``"ok"`` from ``"timeout"``
    and ``"unknown"`` rows).

``fault``
    ``{"v": 1, "type": "fault", "site": "fabric.cell", "action": "kill",
    "key": "0", "attempt": 0}`` — a deterministic test fault fired
    (:mod:`repro.resilience.faults`).

``retry``
    ``{"v": 1, "type": "retry", "index": 3, "attempt": 1, "kind":
    "crash", "delay": 0.05}`` — written only by versions that ran scans
    on a retrying process pool; nothing emits it any more, and the type
    stays in the schema so their traces still validate.

``timeout``
    ``{"v": 1, "type": "timeout", "scope": "pair", "i": 0, "j": 1}`` — a
    cooperative deadline expired; ``scope`` names the budget that ran out
    (``"pair"``, ``"cell"``, ``"scan"``, ``"search"``).

``telemetry`` (v2)
    ``{"v": 2, "type": "telemetry", "owner": "host-1", "seq": 3,
    "wall": 1754600000.1, "phase": "scan", "shard": 4, "generation": 0,
    "cells_done": 7, "cells_total": 15, "rate": 3.2, "ttl": 30.0,
    "metrics": {"fabric.cells.scanned": 7}}`` — one heartbeat frame of a
    fabric worker's telemetry stream (:mod:`repro.obs.telemetry`).
    ``wall`` is absolute ``time.time()`` (frames from different workers
    *are* comparable, unlike span offsets); ``metrics`` carries the
    metrics-registry counter deltas since the previous frame; ``phase``
    is ``start``/``scan``/``idle``/``done``.

``lease`` (v2)
    ``{"v": 2, "type": "lease", "action": "steal", "owner": "host-2",
    "shard": 4, "generation": 1, "wall": 1754600000.2, "t": 0.41}`` —
    one shard-lease transition (``acquire``/``steal``/``release``/
    ``lost``).  The optional ``t`` is the tracer-relative offset, so a
    stitched Chrome trace can place the transition as an instant event
    on the owner's timeline.

``fault``/``timeout`` (and ``lease``) are *incident* events: the
resilience layer records them on a process-global buffer as they happen
(:func:`record_incident`), and the CLI drains the buffer into the trace
(:func:`drain_incidents`).  Incidents recorded inside a worker process
that crashes die with it.

``t`` values are process-relative monotonic offsets (see
:mod:`repro.obs.tracing`); ``proc`` distinguishes worker processes.
The schema is defined as data (:data:`EVENT_TYPES`) so the checker
(:func:`validate_event`, wrapped by ``scripts/validate_trace.py``) and the
emitter can never drift apart.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.obs.tracing import SpanRecord

SCHEMA_VERSION = 2

#: Versions :func:`validate_event_report` accepts.  v2 is additive over
#: v1 (two new event types, no changed fields), so v1 traces written by
#: earlier emitters stay valid forever.
SUPPORTED_VERSIONS = (1, 2)

_NUMBER = (int, float)
_STR_OR_NONE = (str, type(None))

# type → (required field → allowed types), (optional field → allowed types)
EVENT_TYPES: Dict[str, Tuple[Dict[str, tuple], Dict[str, tuple]]] = {
    "span_start": (
        {
            "id": (str,),
            "name": (str,),
            "parent": _STR_OR_NONE,
            "t": _NUMBER,
            "proc": (str,),
        },
        {},
    ),
    "span_end": (
        {
            "id": (str,),
            "name": (str,),
            "t": _NUMBER,
            "dur": _NUMBER,
            "proc": (str,),
        },
        {},
    ),
    "counter": (
        {"name": (str,), "value": _NUMBER},
        {},
    ),
    "search_verdict": (
        {"found": (bool,)},
        {
            "i": (int,),
            "j": (int,),
            "isomorphic": (bool,),
            "consistent": (bool,),
            "verdict": (str,),
        },
    ),
    "fault": (
        {"site": (str,), "action": (str,)},
        {"key": _STR_OR_NONE, "attempt": (int,), "proc": (str,)},
    ),
    "retry": (
        {"index": (int,), "attempt": (int,), "kind": (str,)},
        {"delay": _NUMBER, "error": (str,)},
    ),
    "timeout": (
        {"scope": (str,)},
        {"i": (int,), "j": (int,), "index": (int,), "seconds": _NUMBER},
    ),
    "telemetry": (
        {"owner": (str,), "seq": (int,), "wall": _NUMBER, "phase": (str,)},
        {
            "pid": (int,),
            "shard": (int,),
            "generation": (int,),
            "cells_done": (int,),
            "cells_total": (int,),
            "rate": _NUMBER,
            "ttl": _NUMBER,
            "uptime": _NUMBER,
            "metrics": (dict,),
        },
    ),
    "lease": (
        {"owner": (str,), "shard": (int,), "action": (str,), "wall": _NUMBER},
        {"generation": (int,), "t": _NUMBER},
    ),
}

#: Legal ``action`` strings of a ``lease`` event.
LEASE_ACTIONS = ("acquire", "steal", "release", "lost")

#: Legal ``phase`` strings of a ``telemetry`` frame.
TELEMETRY_PHASES = ("start", "scan", "idle", "done")


def span_events(record: SpanRecord) -> Tuple[dict, dict]:
    """The (span_start, span_end) event pair of one finished span."""
    start = {
        "v": SCHEMA_VERSION,
        "type": "span_start",
        "id": record.span_id,
        "name": record.name,
        "parent": record.parent_id,
        "t": record.start,
        "proc": record.proc,
    }
    end = {
        "v": SCHEMA_VERSION,
        "type": "span_end",
        "id": record.span_id,
        "name": record.name,
        "t": record.end,
        "dur": record.duration,
        "proc": record.proc,
    }
    return start, end


def counter_event(name: str, value: Union[int, float]) -> dict:
    """A ``counter`` event for one final metric total."""
    return {"v": SCHEMA_VERSION, "type": "counter", "name": name, "value": value}


def verdict_event(
    found: bool,
    i: Optional[int] = None,
    j: Optional[int] = None,
    isomorphic: Optional[bool] = None,
    consistent: Optional[bool] = None,
    verdict: Optional[str] = None,
) -> dict:
    """A ``search_verdict`` event; pair-grid fields are optional."""
    event: dict = {"v": SCHEMA_VERSION, "type": "search_verdict", "found": found}
    if i is not None:
        event["i"] = i
    if j is not None:
        event["j"] = j
    if isomorphic is not None:
        event["isomorphic"] = isomorphic
    if consistent is not None:
        event["consistent"] = consistent
    if verdict is not None:
        event["verdict"] = verdict
    return event


def fault_event(
    site: str,
    action: str,
    key: Optional[str] = None,
    attempt: Optional[int] = None,
    proc: str = "",
) -> dict:
    """A ``fault`` event: one deterministic injected fault fired."""
    event: dict = {
        "v": SCHEMA_VERSION,
        "type": "fault",
        "site": site,
        "action": action,
    }
    if key is not None:
        event["key"] = key
    if attempt is not None:
        event["attempt"] = attempt
    if proc:
        event["proc"] = proc
    return event


def timeout_event(
    scope: str,
    i: Optional[int] = None,
    j: Optional[int] = None,
    index: Optional[int] = None,
    seconds: Optional[float] = None,
) -> dict:
    """A ``timeout`` event: a cooperative deadline expired."""
    event: dict = {"v": SCHEMA_VERSION, "type": "timeout", "scope": scope}
    if i is not None:
        event["i"] = i
    if j is not None:
        event["j"] = j
    if index is not None:
        event["index"] = index
    if seconds is not None:
        event["seconds"] = seconds
    return event


def telemetry_event(
    owner: str,
    seq: int,
    wall: float,
    phase: str,
    pid: Optional[int] = None,
    shard: Optional[int] = None,
    generation: Optional[int] = None,
    cells_done: Optional[int] = None,
    cells_total: Optional[int] = None,
    rate: Optional[float] = None,
    ttl: Optional[float] = None,
    uptime: Optional[float] = None,
    metrics: Optional[dict] = None,
) -> dict:
    """A ``telemetry`` heartbeat frame of one fabric worker."""
    if phase not in TELEMETRY_PHASES:
        raise ValueError(
            f"unknown telemetry phase {phase!r} (one of {TELEMETRY_PHASES})"
        )
    event: dict = {
        "v": SCHEMA_VERSION,
        "type": "telemetry",
        "owner": owner,
        "seq": seq,
        "wall": wall,
        "phase": phase,
    }
    for field, value in (
        ("pid", pid),
        ("shard", shard),
        ("generation", generation),
        ("cells_done", cells_done),
        ("cells_total", cells_total),
        ("rate", rate),
        ("ttl", ttl),
        ("uptime", uptime),
        ("metrics", metrics),
    ):
        if value is not None:
            event[field] = value
    return event


def lease_event(
    action: str,
    owner: str,
    shard: int,
    wall: float,
    generation: Optional[int] = None,
    t: Optional[float] = None,
) -> dict:
    """A ``lease`` event: one shard-lease ownership transition."""
    if action not in LEASE_ACTIONS:
        raise ValueError(
            f"unknown lease action {action!r} (one of {LEASE_ACTIONS})"
        )
    event: dict = {
        "v": SCHEMA_VERSION,
        "type": "lease",
        "action": action,
        "owner": owner,
        "shard": shard,
        "wall": wall,
    }
    if generation is not None:
        event["generation"] = generation
    if t is not None:
        event["t"] = t
    return event


# Incident buffer: fault/retry/timeout events appended as they happen and
# drained by the CLI into the written trace.  Process-local (each worker
# has its own; only parent-side incidents reach the trace file) and
# GIL-safe (append/swap of a plain list).
_incidents: List[dict] = []


def record_incident(event: dict) -> None:
    """Append one incident event to the process-global buffer."""
    _incidents.append(event)


def drain_incidents() -> List[dict]:
    """Return all buffered incidents and empty the buffer."""
    global _incidents
    drained, _incidents = _incidents, []
    return drained


def peek_incidents() -> List[dict]:
    """The buffered incidents *without* draining them.

    The fabric worker path writes a per-owner trace file (so stitching
    works) *before* the CLI's end-of-run drain; peeking lets the same
    incidents appear in both outputs without being consumed twice.
    """
    return list(_incidents)


def _type_ok(value: object, types: tuple) -> bool:
    """isinstance with the bool/int trap closed: a bool only matches bool."""
    if isinstance(value, bool):
        return bool in types
    return isinstance(value, types)


def _type_error(event_type: str, field: str, value: object, types: tuple) -> str:
    names = [t.__name__ for t in types]
    return (
        f"{event_type}: field {field!r} has type "
        f"{type(value).__name__}, expected one of {names}"
    )


def validate_event_report(
    obj: object, *, lenient: bool = False
) -> Tuple[List[str], List[str]]:
    """Schema check of one decoded event: ``(errors, warnings)``.

    In strict mode (the default) every violation is an error and the
    warning list is always empty.  In *lenient* (forward-compatibility)
    mode, a field that is neither required nor optional on a *known*
    event type is reported as a warning instead of an error: a schema-v1
    consumer then survives an additive producer — a newer emitter that
    attached extra optional fields — while still rejecting missing or
    mistyped required fields, unknown event types and version drift.
    """
    errors: List[str] = []
    warnings: List[str] = []
    if not isinstance(obj, dict):
        return [f"event must be a JSON object, got {type(obj).__name__}"], []
    version = obj.get("v")
    if version not in SUPPORTED_VERSIONS:
        errors.append(
            f"unsupported schema version {version!r} "
            f"(expected one of {SUPPORTED_VERSIONS})"
        )
    event_type = obj.get("type")
    if event_type not in EVENT_TYPES:
        errors.append(f"unknown event type {event_type!r}")
        return errors, warnings
    required, optional = EVENT_TYPES[event_type]
    for field, types in required.items():
        if field not in obj:
            errors.append(f"{event_type}: missing required field {field!r}")
        elif not _type_ok(obj[field], types):
            errors.append(_type_error(event_type, field, obj[field], types))
    for field, value in obj.items():
        if field in ("v", "type"):
            continue
        if field not in required and field not in optional:
            message = f"{event_type}: unexpected field {field!r}"
            if lenient:
                warnings.append(message + " (tolerated: lenient mode)")
            else:
                errors.append(message)
        elif field in optional and not _type_ok(value, optional[field]):
            errors.append(_type_error(event_type, field, value, optional[field]))
    return errors, warnings


def validate_event(obj: object, *, lenient: bool = False) -> List[str]:
    """All schema violations of one decoded event (empty list = valid)."""
    errors, _warnings = validate_event_report(obj, lenient=lenient)
    return errors


def validate_line_report(
    line: str, *, lenient: bool = False
) -> Tuple[List[str], List[str]]:
    """``(errors, warnings)`` of one raw JSONL line (decode errors included)."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        return [f"not valid JSON: {exc}"], []
    return validate_event_report(obj, lenient=lenient)


def validate_line(line: str, *, lenient: bool = False) -> List[str]:
    """Schema violations of one raw JSONL line (decode errors included)."""
    errors, _warnings = validate_line_report(line, lenient=lenient)
    return errors


def trace_events(
    records: Sequence[SpanRecord],
    counters: Optional[Dict[str, Union[int, float]]] = None,
    verdicts: Sequence[dict] = (),
    incidents: Sequence[dict] = (),
) -> List[dict]:
    """Assemble a full trace: spans, incidents, verdicts, counters.

    Span starts/ends are merged into one stream ordered by time within
    each process (offsets from different processes are not comparable, so
    ordering is (proc, t)); incidents keep their record order.
    """
    timeline: List[Tuple[str, float, int, dict]] = []
    for record in records:
        start, end = span_events(record)
        timeline.append((record.proc, record.start, 0, start))
        timeline.append((record.proc, record.end, 1, end))
    events = [event for *_, event in sorted(timeline, key=lambda e: e[:3])]
    events.extend(incidents)
    events.extend(verdicts)
    for name, value in sorted((counters or {}).items()):
        events.append(counter_event(name, value))
    return events


def write_trace(
    path: Union[str, Path],
    records: Sequence[SpanRecord],
    counters: Optional[Dict[str, Union[int, float]]] = None,
    verdicts: Sequence[dict] = (),
    incidents: Sequence[dict] = (),
) -> int:
    """Write a schema-valid JSONL trace file; returns the line count."""
    events = trace_events(records, counters, verdicts, incidents)
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event, sort_keys=True) + "\n")
    return len(events)


def read_trace(path: Union[str, Path]) -> List[dict]:
    """Parse a JSONL trace file back into event dicts (no validation)."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines if line.strip()]


def spans_from_events(events: Sequence[dict]) -> List[SpanRecord]:
    """Reconstruct :class:`SpanRecord` tuples from span start/end events.

    The inverse of :func:`span_events` over a whole event stream:
    non-span events pass through untouched, and each ``span_end`` closes
    the *most recent* unmatched ``span_start`` with the same id.  The
    most-recent rule matters for *stitched* traces — a resumed scan's
    trace concatenated from two journal segments repeats span ids
    (each segment restarts at ``s0001``), and last-match pairing keeps
    every segment's spans intact instead of crossing segment boundaries.
    A repeated id gets a disambiguating suffix (``s0001#2``, counted per
    process) and parent references resolve to the *open* span with that
    id, so downstream consumers that key on span ids — the fold's
    child-time accounting, the dashboard flamegraph, sample attribution —
    see every segment's spans as distinct.  A single-segment trace round-
    trips with its ids untouched.  Unmatched starts (a segment truncated
    mid-span) and orphan ends are dropped.  Records are returned in
    completion (``span_end``) order, matching a live tracer's record
    order.
    """
    open_spans: Dict[Tuple[str, str], List[dict]] = {}
    uses: Dict[Tuple[str, str], int] = {}
    records: List[SpanRecord] = []
    for event in events:
        event_type = event.get("type")
        if event_type == "span_start":
            key = (event.get("proc", ""), event["id"])
            uses[key] = uses.get(key, 0) + 1
            unique = (
                event["id"] if uses[key] == 1 else f"{event['id']}#{uses[key]}"
            )
            parent = event.get("parent")
            if isinstance(parent, str):
                parent_stack = open_spans.get((event.get("proc", ""), parent))
                if parent_stack:
                    parent = parent_stack[-1]["unique_id"]
            open_spans.setdefault(key, []).append(
                dict(event, unique_id=unique, resolved_parent=parent)
            )
        elif event_type == "span_end":
            stack = open_spans.get((event.get("proc", ""), event["id"]))
            if not stack:
                continue
            start = stack.pop()
            records.append(
                SpanRecord(
                    start["unique_id"],
                    start.get("resolved_parent"),
                    event.get("name", start.get("name", "")),
                    start["t"],
                    event["t"],
                    event.get("proc", ""),
                )
            )
    return records
