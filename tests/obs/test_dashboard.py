"""Unit tests for the HTML report (:mod:`repro.obs.dashboard`)."""

from repro.obs.dashboard import (
    render_dashboard,
    verdict_counts,
    verdict_summary_line,
    write_dashboard,
)
from repro.obs.events import fault_event, timeout_event, verdict_event
from repro.obs.tracing import SpanRecord


def _record(span_id="s0001", parent=None, name="root", start=0.0, end=1.0, proc=""):
    return SpanRecord(span_id, parent, name, start, end, proc)


RECORDS = [
    _record("s0001", None, "scan", 0.0, 1.0),
    _record("s0002", "s0001", "pair", 0.2, 0.6),
    _record("w0:s0001", None, "chunk", 0.0, 0.5, proc="w0"),
]
VERDICTS = [
    verdict_event(found=True, i=0, j=0, isomorphic=True, consistent=True),
    verdict_event(found=False, i=0, j=1, isomorphic=False, consistent=True,
                  verdict="timeout"),
    verdict_event(found=False, i=1, j=1, isomorphic=False, consistent=True,
                  verdict="unknown"),
]


def test_verdict_counts_default_ok():
    counts = verdict_counts(VERDICTS)
    assert counts == {"ok": 1, "timeout": 1, "unknown": 1}
    assert verdict_counts([]) == {"ok": 0, "timeout": 0, "unknown": 0}


def test_verdict_summary_line_format():
    assert verdict_summary_line(VERDICTS) == "verdicts: ok=1 timeout=1 unknown=1"
    assert verdict_summary_line([]) == "verdicts: ok=0 timeout=0 unknown=0"


def test_dashboard_is_self_contained_html():
    text = render_dashboard(RECORDS, verdicts=VERDICTS, title="t13 run")
    assert text.startswith("<!DOCTYPE html>")
    assert "<title>t13 run</title>" in text
    # No external assets: self-contained means no src/href references out.
    assert "http://" not in text and "https://" not in text
    assert "<script" not in text


def test_dashboard_embeds_exact_verdict_summary_line():
    text = render_dashboard(RECORDS, verdicts=VERDICTS)
    assert verdict_summary_line(VERDICTS) in text
    assert 'id="verdict-summary"' in text


def test_pair_grid_colors_by_verdict():
    text = render_dashboard(RECORDS, verdicts=VERDICTS)
    assert 'class="ok"' in text
    assert 'class="timeout"' in text
    assert 'class="unknown"' in text
    # Symmetric closure: cell (1, 0) falls back to the (0, 1) event.
    assert text.count('class="timeout"') == 2


def test_pair_grid_marks_theorem13_violations():
    violation = [verdict_event(found=True, i=0, j=1, isomorphic=False,
                               consistent=False)]
    assert 'class="viol"' in render_dashboard([], verdicts=violation)


def test_flamegraph_has_one_lane_per_process_and_sample_tooltips():
    text = render_dashboard(RECORDS, samples={"s0002": 9})
    assert '<div class="label">main</div>' in text
    assert '<div class="label">w0</div>' in text
    assert "self_samples=9" in text


def test_incident_timeline_lists_events_in_order():
    incidents = [
        fault_event("fabric.cell", "kill", key="0", attempt=0),
        timeout_event("pair", i=0, j=1),
    ]
    text = render_dashboard([], incidents=incidents)
    assert text.index(">fault<") < text.index(">timeout<")
    assert "no incidents" not in text
    assert "no incidents" in render_dashboard([])


def test_metrics_snapshot_collapsed_by_default():
    text = render_dashboard([], metrics={"cache.evaluate.hits": 5})
    assert "<details>" in text
    assert "cache.evaluate.hits" in text


def test_write_dashboard_returns_byte_length(tmp_path):
    path = tmp_path / "report.html"
    size = write_dashboard(path, RECORDS, verdicts=VERDICTS)
    assert size == len(path.read_bytes())
    assert size > 0


def test_grid_cells_carry_provenance_class_and_tooltip():
    provenance = {
        (0, 1): {"provenance": "symmetric", "symmetric_to": [0, 2]},
        (1, 1): {"provenance": "carried"},
        (0, 0): {"provenance": "scanned"},
    }
    text = render_dashboard(RECORDS, verdicts=VERDICTS, provenance=provenance)
    assert 'class="timeout p-sym"' in text
    assert "p-car" in text
    assert "provenance=symmetric of (0, 2)" in text
    assert "provenance: scanned=1 symmetric=1 carried=1" in text
    assert 'id="provenance-summary"' in text


def test_provenance_absent_means_no_summary_line():
    text = render_dashboard(RECORDS, verdicts=VERDICTS)
    assert "provenance-summary" not in text


def test_provenance_does_not_perturb_verdict_summary_line():
    from repro.obs.dashboard import verdict_summary_line as _line

    provenance = {(0, 0): {"provenance": "scanned"}}
    with_p = render_dashboard(RECORDS, verdicts=VERDICTS, provenance=provenance)
    without = render_dashboard(RECORDS, verdicts=VERDICTS)
    # The CLI prints this exact line; the dashboard must embed it
    # byte-identically whether or not provenance coloring is on.
    assert _line(VERDICTS) in with_p and _line(VERDICTS) in without


def test_lease_gantt_renders_bars_and_marks_steals():
    from repro.obs.events import lease_event

    leases = [
        lease_event("acquire", owner="w1", shard=0, wall=10.0, generation=0),
        lease_event("lost", owner="w1", shard=0, wall=12.0, generation=0),
        lease_event("steal", owner="w2", shard=0, wall=13.0, generation=1),
        lease_event("release", owner="w2", shard=0, wall=15.0, generation=1),
        lease_event("acquire", owner="w2", shard=1, wall=15.0, generation=0),
    ]
    text = render_dashboard(RECORDS, verdicts=VERDICTS, leases=leases)
    assert "lease ownership" in text
    assert 'class="gantt"' in text
    assert 'class="bar stolen"' in text
    # The never-released shard-1 bar extends to the trace end, marked open.
    assert "(open)" in text
    assert text.count('class="proc"') >= 2  # one gantt row per owner


def test_no_lease_events_means_no_gantt_section():
    text = render_dashboard(RECORDS, verdicts=VERDICTS, leases=[])
    assert "lease ownership" not in text


def test_fleet_section_lists_workers_and_shard_summary():
    fleet = {
        "workers": [
            {"owner": "w1", "state": "done", "phase": "done", "shard": None,
             "cells_done": 9, "rate": 3.5, "frames": 12, "torn": 0},
            {"owner": "w2", "state": "dead", "phase": "scan", "shard": 4,
             "cells_done": 2, "rate": None, "frames": 3, "torn": 1},
        ],
        "shards": {"done": 4, "total": 4, "stolen": 1},
        "complete": True,
    }
    text = render_dashboard(RECORDS, verdicts=VERDICTS, fleet=fleet)
    assert "fleet" in text
    assert "w1" in text and "w2" in text
    assert "3.5/s" in text
    assert "shards: 4/4 done, 1 stolen — complete" in text


def test_fabric_tiles_absent_without_fabric_counters():
    # Guard: a plain (non-fabric) run's metrics JSON must produce no
    # fabric/lease tiles — not tiles full of zeros.
    text = render_dashboard(
        RECORDS, metrics={"cache.evaluate.hits": 5, "search.pairs_tried": 3}
    )
    assert "shards leased" not in text
    assert "fabric cells" not in text


def test_fabric_tiles_render_worker_and_merge_counter_spellings():
    text = render_dashboard(
        RECORDS,
        metrics={
            "fabric.shards.leased": 8,
            "fabric.shards.stolen": 2,
            "fabric.cells.scanned": 15,
            "fabric.merge.cells.scanned": 15,
            "fabric.merge.cells.symmetric": 3,
        },
    )
    assert "shards leased/stolen/reclaimed" in text
    assert "fabric cells scanned/sym/carried" in text
    assert "merged cells scanned/sym/carried" in text
