"""Self-contained HTML report for one run: flamegraph, grid, tiles, timeline.

:func:`render_dashboard` turns the observability layer's in-memory data —
span records, the metrics snapshot, verdict events, incident events and
profiler samples — into a single dependency-free HTML string (inline CSS,
no JavaScript, no external assets), so the file opens anywhere, attaches
to CI runs as an artifact, and survives archiving byte-for-byte.

Sections, in order:

* **tiles** — headline health numbers: wall time, span/process counts,
  cache hit rate and evictions, matcher backtracks,
  incident count, profiler coverage;
* **pair grid** — the Theorem-13 scan as a heatmap, one cell per
  unordered schema pair, colored by verdict (``ok``/``timeout``/
  ``unknown``) and Theorem-13 consistency, with the exact verdict-count
  line the CLI prints (:func:`verdict_summary_line`) above it — the
  acceptance check asserts the two match byte-for-byte.  When merge
  provenance is supplied (``repro merge-journals --html-report``), every
  cell additionally carries its disposition — genuinely *scanned*,
  *symmetric* mirror, or *carried* from a prior journal — as an inset
  border, with a provenance census line below the verdict line;
* **lease Gantt** — one row per fabric worker, a bar per held
  ``(shard, generation)`` interval from the telemetry streams' lease
  events, so who-owned-what-when (and every steal) is visible at a
  glance;
* **fleet** — the per-worker liveness table of a
  :class:`~repro.obs.fleet.FleetSnapshot`, when one is supplied;
* **flamegraph** — the span tree per process, spans positioned by start
  offset and width by duration, profiler self-samples in the tooltip;
* **incident timeline** — fault/retry/timeout events in record order;
* **counters** — the full metrics snapshot, collapsed by default.

Fabric tiles render only when the metrics snapshot actually has fabric
counters (``fabric.*``): a plain non-fabric run gets no empty tiles.

Everything is computed from the same inputs the JSONL trace is written
from, so the dashboard never disagrees with the trace.
"""

from __future__ import annotations

import html
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.obs import metrics as _metrics
from repro.obs import profiler as _profiler
from repro.obs.summary import fold
from repro.obs.tracing import SpanRecord

Number = Union[int, float]

#: Verdict strings in display order; every summary line names all three.
VERDICTS = ("ok", "timeout", "unknown")

_PALETTE = (
    "#4e79a7", "#f28e2b", "#59a14f", "#e15759",
    "#76b7b2", "#edc948", "#b07aa1", "#9c755f",
)

_CSS = """
body { font: 13px/1.45 system-ui, sans-serif; margin: 1.2em auto; max-width: 1100px;
       color: #1a1a2e; background: #fafafa; padding: 0 1em; }
h1 { font-size: 1.3em; } h2 { font-size: 1.05em; margin-top: 1.6em; }
.tiles { display: flex; flex-wrap: wrap; gap: 8px; }
.tile { background: #fff; border: 1px solid #ddd; border-radius: 6px;
        padding: 8px 14px; min-width: 110px; }
.tile .v { font-size: 1.25em; font-weight: 600; display: block; }
.tile .k { color: #667; font-size: 0.85em; }
pre.summary { background: #fff; border: 1px solid #ddd; border-radius: 6px;
              padding: 6px 10px; display: inline-block; }
table.grid { border-collapse: collapse; }
table.grid td, table.grid th { border: 1px solid #ccc; width: 26px; height: 22px;
                               text-align: center; font-size: 0.78em; }
td.ok      { background: #b6e3b6; }
td.viol    { background: #e88; font-weight: 700; }
td.timeout { background: #ffd27f; }
td.unknown { background: #d5d5d5; }
td.blank   { background: #f4f4f4; border-color: #eee; }
td.p-sym   { box-shadow: inset 0 0 0 3px #8884d8; }
td.p-car   { box-shadow: inset 0 0 0 3px #7a7a7a; }
.gantt { position: relative; background: #fff; border: 1px solid #ddd;
         border-radius: 4px; overflow: hidden; height: 18px; }
.gantt .bar { position: absolute; height: 16px; top: 1px; border-radius: 2px;
              font-size: 0.72em; line-height: 16px; color: #fff;
              overflow: hidden; white-space: nowrap; padding: 0 3px;
              box-sizing: border-box; }
.gantt .bar.stolen { border: 2px dashed #222; line-height: 12px; }
.proc { margin: 0.6em 0 1.1em; }
.proc .label { color: #667; font-size: 0.85em; margin-bottom: 2px; }
.flame { position: relative; background: #fff; border: 1px solid #ddd;
         border-radius: 4px; overflow: hidden; }
.flame .span { position: absolute; height: 16px; border-radius: 2px;
               font-size: 0.72em; line-height: 16px; color: #fff;
               overflow: hidden; white-space: nowrap; padding: 0 3px;
               box-sizing: border-box; }
table.list { border-collapse: collapse; width: 100%; background: #fff; }
table.list td, table.list th { border: 1px solid #ddd; padding: 3px 8px;
                               text-align: left; font-size: 0.88em; }
details > summary { cursor: pointer; color: #345; }
footer { margin-top: 2em; color: #889; font-size: 0.8em; }
"""


def verdict_counts(verdicts: Sequence[Mapping]) -> Dict[str, int]:
    """Count ``search_verdict`` events per verdict string (missing = ok)."""
    counts = {verdict: 0 for verdict in VERDICTS}
    for event in verdicts:
        verdict = event.get("verdict", "ok")
        counts[verdict] = counts.get(verdict, 0) + 1
    return counts


def verdict_summary_line(verdicts: Sequence[Mapping]) -> str:
    """The one-line verdict census both the CLI and the dashboard print.

    The CLI report and the HTML embed this exact string, so the two can
    be compared byte-for-byte.

    >>> verdict_summary_line([{"found": False}, {"found": False, "verdict": "timeout"}])
    'verdicts: ok=1 timeout=1 unknown=0'
    """
    counts = verdict_counts(verdicts)
    return "verdicts: " + " ".join(
        f"{verdict}={counts.get(verdict, 0)}" for verdict in VERDICTS
    )


def _color(name: str) -> str:
    return _PALETTE[sum(name.encode()) % len(_PALETTE)]


def _fmt(value: Number) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _tile(value: str, key: str) -> str:
    return (
        f'<div class="tile"><span class="v">{html.escape(value)}</span>'
        f'<span class="k">{html.escape(key)}</span></div>'
    )


def _tiles_section(
    records: Sequence[SpanRecord],
    snapshot: Mapping[str, Number],
    incidents: Sequence[Mapping],
    samples: Mapping[str, int],
) -> str:
    summary = fold(records)
    hits, misses, evictions = _metrics.cache_totals(snapshot)
    looked_up = hits + misses
    hit_rate = f"{100.0 * hits / looked_up:.1f}%" if looked_up else "n/a"
    total_ticks = sum(samples.values())
    idle_ticks = samples.get(_profiler.IDLE, 0)
    coverage = (
        f"{100.0 * (total_ticks - idle_ticks) / total_ticks:.1f}%"
        if total_ticks
        else "n/a"
    )
    tiles = [
        _tile(f"{summary.wall_s:.3f}s", "wall time"),
        _tile(str(len(records)), "spans"),
        _tile(str(summary.processes), "processes"),
        _tile(hit_rate, "cache hit rate"),
        _tile(_fmt(evictions), "cache evictions"),
        _tile(_fmt(snapshot.get("hom.backtracks", 0)), "backtracks"),
        _tile(_fmt(snapshot.get("search.pairs_tried", 0)), "pairs tried"),
        _tile(str(len(incidents)), "incidents"),
    ]
    plans = snapshot.get("hypergraph.plans.compiled", 0)
    if plans:
        acyclic = snapshot.get("hypergraph.plans.acyclic", 0)
        tiles.append(
            _tile(f"{100.0 * acyclic / plans:.1f}%", "acyclic plans")
        )
    tiles.extend(_fabric_tiles(snapshot))
    if total_ticks:
        tiles.append(_tile(f"{total_ticks} ({coverage})", "samples (attributed)"))
    return '<div class="tiles">' + "".join(tiles) + "</div>"


def _fabric_tiles(snapshot: Mapping[str, Number]) -> List[str]:
    """Fabric/lease tiles, or nothing at all for a non-fabric run.

    A metrics snapshot with no ``fabric.*`` counters (every plain
    ``theorem13`` run) must produce *no* tiles here — not tiles full of
    zeros.  Cell counters come in two spellings: workers increment
    ``fabric.cells.*`` as they plan/scan, ``merge-journals`` increments
    ``fabric.merge.cells.*`` as it assembles; both render.
    """
    if not any(name.startswith("fabric.") for name in snapshot):
        return []
    tiles: List[str] = []
    leased = snapshot.get("fabric.shards.leased", 0)
    if leased:
        tiles.append(
            _tile(
                f"{_fmt(leased)}/{_fmt(snapshot.get('fabric.shards.stolen', 0))}"
                f"/{_fmt(snapshot.get('fabric.shards.reclaimed', 0))}",
                "shards leased/stolen/reclaimed",
            )
        )
    for prefix, label in (
        ("fabric.cells.", "fabric cells scanned/sym/carried"),
        ("fabric.merge.cells.", "merged cells scanned/sym/carried"),
    ):
        cells = {
            kind: snapshot.get(f"{prefix}{kind}", 0)
            for kind in ("scanned", "symmetric", "carried")
        }
        if any(cells.values()):
            tiles.append(
                _tile(
                    "/".join(
                        _fmt(cells[k])
                        for k in ("scanned", "symmetric", "carried")
                    ),
                    label,
                )
            )
    return tiles


_PROVENANCE_CSS = {"symmetric": "p-sym", "carried": "p-car"}


def _grid_cell(
    event: Optional[Mapping], origin: Optional[Mapping] = None
) -> str:
    if event is None:
        return '<td class="blank"></td>'
    verdict = event.get("verdict", "ok")
    if verdict == "timeout":
        css, text = "timeout", "t/o"
    elif verdict == "unknown":
        css, text = "unknown", "??"
    elif event.get("consistent", True):
        css, text = "ok", "&#10003;"
    else:
        css, text = "viol", "&#10007;"
    tooltip = (
        f"({event.get('i')}, {event.get('j')}) verdict={verdict} "
        f"found={event.get('found')} isomorphic={event.get('isomorphic')}"
    )
    if origin:
        kind = origin.get("provenance", "")
        extra = _PROVENANCE_CSS.get(kind)
        if extra:
            css += f" {extra}"
        tooltip += f" provenance={kind}"
        mirror = origin.get("symmetric_to")
        if mirror is not None:
            tooltip += f" of ({mirror[0]}, {mirror[1]})"
    return f'<td class="{css}" title="{html.escape(tooltip)}">{text}</td>'


def _provenance_line(provenance: Mapping) -> str:
    counts: Dict[str, int] = {}
    for origin in provenance.values():
        kind = origin.get("provenance", "?")
        counts[kind] = counts.get(kind, 0) + 1
    census = " ".join(
        f"{kind}={counts[kind]}"
        for kind in ("scanned", "symmetric", "carried")
        if counts.get(kind)
    )
    return (
        '<pre class="summary" id="provenance-summary">'
        f"provenance: {html.escape(census)}</pre>"
    )


def _grid_section(
    verdicts: Sequence[Mapping], provenance: Optional[Mapping] = None
) -> str:
    line = html.escape(verdict_summary_line(verdicts))
    parts = [f'<pre class="summary" id="verdict-summary">{line}</pre>']
    origins = {
        tuple(cell): dict(origin) for cell, origin in (provenance or {}).items()
    }
    if origins:
        parts.append(_provenance_line(origins))
    cells = {
        (event["i"], event["j"]): event
        for event in verdicts
        if event.get("i") is not None and event.get("j") is not None
    }
    if cells:
        n = 1 + max(max(i, j) for i, j in cells)
        rows = ['<table class="grid"><tr><th></th>'
                + "".join(f"<th>{j}</th>" for j in range(n)) + "</tr>"]
        for i in range(n):
            row = [f"<tr><th>{i}</th>"]
            for j in range(n):
                row.append(
                    _grid_cell(
                        cells.get((i, j), cells.get((j, i))),
                        origins.get((i, j), origins.get((j, i))),
                    )
                )
            row.append("</tr>")
            rows.append("".join(row))
        rows.append("</table>")
        parts.append("".join(rows))
    return "\n".join(parts)


def _gantt_section(leases: Sequence[Mapping]) -> str:
    """Per-worker lease-ownership bars from telemetry ``lease`` events.

    ``acquire``/``steal`` open an interval for ``(owner, shard,
    generation)``; ``release``/``lost`` close the owner's open interval
    on that shard.  Intervals a dead worker never closed extend to the
    last event seen — exactly the window the stealing protocol had to
    reclaim.
    """
    events = sorted(
        (dict(event) for event in leases if event.get("wall") is not None),
        key=lambda event: event["wall"],
    )
    if not events:
        return ""
    t0 = events[0]["wall"]
    t1 = max(event["wall"] for event in events)
    extent = max(t1 - t0, 1e-9)
    open_bars: Dict[Tuple[str, int], Dict] = {}
    bars_by_owner: Dict[str, List[Dict]] = {}
    for event in events:
        owner = str(event.get("owner", "?"))
        shard = event.get("shard")
        key = (owner, shard)
        action = event.get("action")
        if action in ("acquire", "steal"):
            open_bars[key] = {
                "shard": shard,
                "generation": event.get("generation"),
                "start": event["wall"],
                "stolen": action == "steal",
            }
        elif action in ("release", "lost") and key in open_bars:
            bar = open_bars.pop(key)
            bar["end"] = event["wall"]
            bar["closed_by"] = action
            bars_by_owner.setdefault(owner, []).append(bar)
    for (owner, _shard), bar in open_bars.items():
        bar["end"] = t1
        bar["closed_by"] = "(open)"
        bars_by_owner.setdefault(owner, []).append(bar)
    parts = []
    for owner in sorted(bars_by_owner):
        divs = []
        for bar in sorted(bars_by_owner[owner], key=lambda b: b["start"]):
            left = 100.0 * (bar["start"] - t0) / extent
            width = max(100.0 * (bar["end"] - bar["start"]) / extent, 0.4)
            css = "bar stolen" if bar["stolen"] else "bar"
            color = _PALETTE[(bar["shard"] or 0) % len(_PALETTE)]
            tip = (
                f"shard {bar['shard']} g{bar['generation']} "
                f"{'stolen' if bar['stolen'] else 'acquired'} "
                f"{bar['end'] - bar['start']:.2f}s → {bar['closed_by']}"
            )
            divs.append(
                f'<div class="{css}" style="left:{left:.3f}%;'
                f'width:{width:.3f}%;background:{color}" '
                f'title="{html.escape(tip)}">s{bar["shard"]}</div>'
            )
        parts.append(
            f'<div class="proc"><div class="label">{html.escape(owner)}</div>'
            f'<div class="gantt">{"".join(divs)}</div></div>'
        )
    return "\n".join(parts)


def _fleet_section(fleet: Mapping) -> str:
    """The per-worker liveness table of a fleet snapshot's ``as_dict``."""
    workers = fleet.get("workers", ())
    if not workers:
        return "<p>no worker telemetry</p>"
    rows = [
        '<table class="list"><tr><th>worker</th><th>state</th><th>phase</th>'
        "<th>shard</th><th>cells</th><th>rate</th><th>frames</th>"
        "<th>torn</th></tr>"
    ]
    for worker in workers:
        rate = worker.get("rate")
        rows.append(
            f"<tr><td>{html.escape(str(worker.get('owner')))}</td>"
            f"<td>{html.escape(str(worker.get('state')))}</td>"
            f"<td>{html.escape(str(worker.get('phase')))}</td>"
            f"<td>{worker.get('shard') if worker.get('shard') is not None else '-'}</td>"
            f"<td>{worker.get('cells_done', 0)}</td>"
            f"<td>{f'{rate:.1f}/s' if rate else '-'}</td>"
            f"<td>{worker.get('frames', 0)}</td>"
            f"<td>{worker.get('torn', 0)}</td></tr>"
        )
    rows.append("</table>")
    shards = fleet.get("shards", {})
    summary = (
        f"shards: {shards.get('done', 0)}/{shards.get('total', 0)} done, "
        f"{shards.get('stolen', 0)} stolen"
        + (" — complete" if fleet.get("complete") else "")
    )
    return f"<p>{html.escape(summary)}</p>" + "".join(rows)


def _flame_spans(
    records: Sequence[SpanRecord], samples: Mapping[str, int]
) -> Tuple[str, int]:
    """Absolutely-positioned span divs for one process; returns (html, depth)."""
    by_parent: Dict[Optional[str], List[SpanRecord]] = {}
    for record in records:
        by_parent.setdefault(record.parent_id, []).append(record)
    ids = {record.span_id for record in records}
    # Roots: no parent, or a parent outside this process's record set
    # (possible in stitched traces).
    roots = [
        record
        for record in records
        if record.parent_id is None or record.parent_id not in ids
    ]
    t0 = min((record.start for record in roots), default=0.0)
    t1 = max((record.end for record in roots), default=1.0)
    extent = max(t1 - t0, 1e-9)
    divs: List[str] = []
    max_depth = 0

    def emit(record: SpanRecord, depth: int) -> None:
        nonlocal max_depth
        max_depth = max(max_depth, depth)
        left = 100.0 * (record.start - t0) / extent
        width = max(100.0 * record.duration / extent, 0.05)
        ticks = samples.get(record.span_id, 0)
        tip = f"{record.name} [{record.span_id}] {record.duration * 1e3:.3f}ms"
        if ticks:
            tip += f", self_samples={ticks}"
        divs.append(
            f'<div class="span" style="left:{left:.3f}%;width:{width:.3f}%;'
            f"top:{depth * 18}px;background:{_color(record.name)}\" "
            f'title="{html.escape(tip)}">{html.escape(record.name)}</div>'
        )
        for child in sorted(
            by_parent.get(record.span_id, ()), key=lambda r: r.start
        ):
            emit(child, depth + 1)

    for root in sorted(roots, key=lambda r: r.start):
        emit(root, 0)
    return "".join(divs), max_depth


def _flame_section(
    records: Sequence[SpanRecord], samples: Mapping[str, int]
) -> str:
    by_proc: Dict[str, List[SpanRecord]] = {}
    for record in records:
        by_proc.setdefault(record.proc, []).append(record)
    parts: List[str] = []
    for proc in sorted(by_proc):
        divs, depth = _flame_spans(by_proc[proc], samples)
        label = proc if proc else "main"
        parts.append(
            f'<div class="proc"><div class="label">{html.escape(label)}</div>'
            f'<div class="flame" style="height:{(depth + 1) * 18}px">{divs}</div>'
            "</div>"
        )
    return "\n".join(parts) if parts else "<p>no spans recorded</p>"


def _incident_section(incidents: Sequence[Mapping]) -> str:
    if not incidents:
        return "<p>no incidents</p>"
    rows = ["<table class=\"list\"><tr><th>#</th><th>type</th><th>details</th></tr>"]
    for number, event in enumerate(incidents, start=1):
        details = " ".join(
            f"{key}={event[key]}"
            for key in sorted(event)
            if key not in ("v", "type")
        )
        rows.append(
            f"<tr><td>{number}</td><td>{html.escape(str(event.get('type')))}</td>"
            f"<td>{html.escape(details)}</td></tr>"
        )
    rows.append("</table>")
    return "".join(rows)


def _counters_section(snapshot: Mapping[str, Number]) -> str:
    rows = ["<table class=\"list\"><tr><th>metric</th><th>value</th></tr>"]
    for name in sorted(snapshot):
        rows.append(
            f"<tr><td>{html.escape(name)}</td><td>{_fmt(snapshot[name])}</td></tr>"
        )
    rows.append("</table>")
    return (
        "<details><summary>full metrics snapshot "
        f"({len(snapshot)} counters)</summary>{''.join(rows)}</details>"
    )


def render_dashboard(
    records: Sequence[SpanRecord],
    metrics: Optional[Mapping[str, Number]] = None,
    verdicts: Sequence[Mapping] = (),
    incidents: Sequence[Mapping] = (),
    samples: Optional[Mapping[str, int]] = None,
    title: str = "repro run",
    provenance: Optional[Mapping] = None,
    leases: Sequence[Mapping] = (),
    fleet: Optional[Mapping] = None,
) -> str:
    """Render the full self-contained HTML report as a string.

    ``provenance`` (cell → disposition, from a merge result) colors the
    pair grid; ``leases`` (telemetry lease events) adds the ownership
    Gantt; ``fleet`` (a :meth:`FleetSnapshot.as_dict`) adds the worker
    liveness table.  All three are optional and default to absent.
    """
    snapshot = dict(metrics or {})
    samples = dict(samples or {})
    sections = [
        f"<h1>{html.escape(title)}</h1>",
        _tiles_section(records, snapshot, incidents, samples),
        "<h2>pair grid</h2>",
        _grid_section(verdicts, provenance),
    ]
    gantt = _gantt_section(leases)
    if gantt:
        sections.extend(["<h2>lease ownership</h2>", gantt])
    if fleet is not None:
        sections.extend(["<h2>fleet</h2>", _fleet_section(fleet)])
    sections += [
        "<h2>flamegraph</h2>",
        _flame_section(records, samples),
        "<h2>incident timeline</h2>",
        _incident_section(incidents),
        "<h2>metrics</h2>",
        _counters_section(snapshot),
        "<footer>generated by repro.obs.dashboard — self-contained, no "
        "external assets</footer>",
    ]
    body = "\n".join(sections)
    return (
        "<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">"
        f"<title>{html.escape(title)}</title>"
        f"<style>{_CSS}</style></head>\n<body>\n{body}\n</body></html>\n"
    )


def write_dashboard(
    path: Union[str, Path],
    records: Sequence[SpanRecord],
    metrics: Optional[Mapping[str, Number]] = None,
    verdicts: Sequence[Mapping] = (),
    incidents: Sequence[Mapping] = (),
    samples: Optional[Mapping[str, int]] = None,
    title: str = "repro run",
    provenance: Optional[Mapping] = None,
    leases: Sequence[Mapping] = (),
    fleet: Optional[Mapping] = None,
) -> int:
    """Write the HTML report; returns the byte length written."""
    text = render_dashboard(
        records, metrics, verdicts, incidents, samples, title=title,
        provenance=provenance, leases=leases, fleet=fleet,
    )
    data = text.encode("utf-8")
    Path(path).write_bytes(data)
    return len(data)
