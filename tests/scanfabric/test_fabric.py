"""Worker/merge behaviour of the scan fabric, including injected faults.

The CLI-level multi-process chaos drill lives in ``test_fabric_cli.py``;
these tests exercise the same machinery in-process, where assertions can
reach the journals, leases and metrics directly.
"""

import json

import pytest

from repro.core.search import theorem13_scan
from repro.errors import FabricError
from repro.obs import metrics
from repro.resilience import install, rule
from repro.scanfabric import (
    load_plan,
    merge_journals,
    run_fabric_worker,
    write_merged,
)
from repro.scanfabric import journal as fabric_journal
from repro.workloads import enumerate_keyed_schemas
from repro.workloads.schema_gen import shuffled_copy


def _universe():
    return list(
        enumerate_keyed_schemas(("T", "U"), max_relations=2, max_arity=1)
    )


def _counter(name):
    return metrics.registry().snapshot().get(name, 0)


def _as_tuples(rows):
    return [tuple(row) for row in rows]


def test_single_worker_completes_and_merge_matches_clean_scan(tmp_path):
    schemas = _universe()
    baseline = theorem13_scan(schemas, max_atoms=2)
    result = run_fabric_worker(tmp_path, schemas, shard_cells=4, owner="w1")
    assert result.shards_lost == 0
    assert result.cells_scanned == len(baseline)
    merged = merge_journals(tmp_path)
    assert _as_tuples(merged.rows) == _as_tuples(baseline)
    assert merged.stats.cells_scanned == len(baseline)
    assert merged.stats.cells_symmetric == 0


def test_symmetric_cells_resolve_to_their_representative(tmp_path):
    schemas = _universe()
    extended = schemas + [shuffled_copy(schemas[0], seed=7)]
    baseline = theorem13_scan(extended, max_atoms=2)
    run_fabric_worker(tmp_path, extended, shard_cells=4, owner="w1")
    merged = merge_journals(tmp_path)
    assert _as_tuples(merged.rows) == _as_tuples(baseline)
    assert merged.stats.cells_symmetric > 0
    # Provenance marks point at the representative cell.
    plan = load_plan(tmp_path)
    for cell, rep in plan.symmetric.items():
        mark = merged.provenance[cell]
        assert mark == {"provenance": "symmetric", "symmetric_to": list(rep)}


def test_lease_expiry_mid_shard_is_resumed_by_second_pass(tmp_path):
    # An injected LeaseExpired on shard 0's first heartbeat makes the
    # worker abandon the shard mid-scan; its journal survives, and the
    # worker's own next pass (generation 1) resumes from it.
    schemas = _universe()
    baseline = theorem13_scan(schemas, max_atoms=2)
    lost_before = _counter("fabric.leases.lost")
    install([
        rule("fabric.cell", "lease_expire", keys=[0], attempts=[0],
             max_fires=1),
    ])
    result = run_fabric_worker(
        tmp_path, schemas, shard_cells=4, owner="w1", ttl=5.0
    )
    assert result.shards_lost == 1
    assert result.shards_resumed >= 1
    assert result.cells_resumed >= 1
    assert _counter("fabric.leases.lost") == lost_before + 1
    merged = merge_journals(tmp_path)
    assert _as_tuples(merged.rows) == _as_tuples(baseline)


def test_second_owner_steals_unfinished_shards_and_merge_is_clean(tmp_path):
    # Worker 1 loses every shard's lease after one scanned cell and dies
    # outright when it comes back for a second try (generation 1) — so
    # every shard is left mid-flight with an unreleased lease.  Worker 2
    # steals them all, resumes each journal and finishes; the merge is
    # identical to a clean scan.
    from repro.errors import InjectedFault
    from repro.resilience import faults

    schemas = _universe()
    baseline = theorem13_scan(schemas, max_atoms=2)

    class Expiring:
        """A clock that ages the lease 2s per observation (TTL is 4s)."""

        def __init__(self):
            self.now = 0.0

        def __call__(self):
            self.now += 2.0
            return self.now

    install([
        rule("fabric.cell", "lease_expire"),
        rule("fabric.shard", "raise", attempts=[1]),
    ])
    with pytest.raises(InjectedFault):
        run_fabric_worker(
            tmp_path, schemas, shard_cells=2, owner="w1", ttl=4.0,
            clock=Expiring(),
        )
    faults.clear()
    stolen_before = _counter("fabric.shards.stolen")
    second = run_fabric_worker(
        tmp_path, schemas, shard_cells=2, owner="w2", ttl=4.0
    )
    assert second.shards_completed > 0
    assert second.cells_resumed > 0  # w1's journaled cells were reused
    assert _counter("fabric.shards.stolen") > stolen_before
    merged = merge_journals(tmp_path)
    assert _as_tuples(merged.rows) == _as_tuples(baseline)


def test_merge_requires_complete_shards(tmp_path):
    # A complete run with one shard's journal (and marker) deleted looks
    # exactly like a fabric whose workers are still mid-flight.
    schemas = _universe()
    run_fabric_worker(tmp_path, schemas, shard_cells=4, owner="w1")
    marker = fabric_journal.done_marker_path(tmp_path, 0)
    marker.unlink()
    for segment in fabric_journal.segment_paths(tmp_path, 0):
        segment.unlink()
    with pytest.raises(FabricError, match="not yet journaled"):
        merge_journals(tmp_path)
    partial = merge_journals(tmp_path, require_complete=False)
    plan = load_plan(tmp_path)
    assert len(partial.rows) == len(plan.all_cells) - len(plan.shards[0])


def test_merge_rejects_conflicting_duplicate_cells(tmp_path):
    schemas = _universe()
    run_fabric_worker(tmp_path, schemas, shard_cells=4, owner="w1")
    plan = load_plan(tmp_path)
    # Forge a second segment for shard 0 disagreeing on its first cell.
    victim = plan.shards[0][0]
    forged = fabric_journal.segment_path(tmp_path, 0, 99, "evil")
    header = {
        "v": 1, "kind": "header", "fingerprint": plan.scan_fingerprint,
    }
    cell = {
        "v": 1, "kind": "cell", "key": list(victim),
        "data": {"isomorphic": True, "found": False, "verdict": "ok"},
    }
    forged.write_text(
        json.dumps(header) + "\n" + json.dumps(cell) + "\n"
    )
    with pytest.raises(FabricError, match="conflicting verdicts"):
        merge_journals(tmp_path)


def test_merge_tolerates_torn_tail_and_stillborn_segments(tmp_path):
    schemas = _universe()
    baseline = theorem13_scan(schemas, max_atoms=2)
    run_fabric_worker(tmp_path, schemas, shard_cells=4, owner="w1")
    # A dead-at-birth segment (empty file) and one with a torn final
    # line must both be tolerated.
    fabric_journal.segment_path(tmp_path, 0, 7, "dead").write_text("")
    fabric_journal.segment_path(tmp_path, 1, 7, "torn").write_text(
        '{"v": 1, "kind": "hea'
    )
    plan = load_plan(tmp_path)
    live = fabric_journal.segment_paths(tmp_path, 2)[0]
    with live.open("a") as handle:
        handle.write('{"v": 1, "kind": "cell", "key": [')  # torn tail
    merged = merge_journals(tmp_path)
    assert _as_tuples(merged.rows) == _as_tuples(baseline)
    assert plan.scan_fingerprint["kind"] == "theorem13"


def test_merged_journal_is_a_valid_prior_and_checkpoint(tmp_path):
    schemas = _universe()
    run_fabric_worker(tmp_path, schemas, shard_cells=4, owner="w1")
    merged_path = write_merged(tmp_path, merge_journals(tmp_path))
    # (a) as an --incremental prior: everything carries, nothing scans.
    second = run_fabric_worker(
        tmp_path / "next", schemas, shard_cells=4, owner="w2",
        prior=merged_path,
    )
    assert second.cells_scanned == 0
    plan = load_plan(tmp_path / "next")
    assert plan.shards == ()
    assert merge_journals(tmp_path / "next").stats.cells_carried == len(
        plan.carried
    )
    # (b) as a journal of the plain scan configuration: it verifies
    # against the plain scan fingerprint and replays every cell.
    from repro.core.search import scan_fingerprint
    from repro.scanfabric.journal import read_journal

    fingerprint = scan_fingerprint("theorem13", schemas, 2)
    _, done = read_journal(merged_path, fingerprint)
    assert len(done) == len(plan.all_cells)


def test_write_merged_is_atomic_and_rerunnable(tmp_path):
    schemas = _universe()
    run_fabric_worker(tmp_path, schemas, shard_cells=4, owner="w1")
    first = write_merged(tmp_path, merge_journals(tmp_path))
    original = first.read_bytes()
    again = write_merged(tmp_path, merge_journals(tmp_path))
    assert again.read_bytes() == original
    # No temp litter left behind.
    assert not list(tmp_path.glob(".merged.jsonl.*"))


def test_incremental_metrics_count_carried_vs_scanned(tmp_path):
    # Acceptance criterion: after a 1-schema perturbation, the metrics
    # registry shows exactly the affected cells as scanned and the rest
    # as carried.
    schemas = _universe()
    run_fabric_worker(tmp_path, schemas, shard_cells=4, owner="w1")
    merged = write_merged(tmp_path, merge_journals(tmp_path))
    perturbed = list(schemas)
    victim = 1
    perturbed[victim] = shuffled_copy(schemas[victim], seed=13)
    carried_before = _counter("fabric.cells.carried")
    planned_before = _counter("fabric.cells.planned")
    scanned_before = _counter("fabric.cells.scanned")
    result = run_fabric_worker(
        tmp_path / "incr", perturbed, shard_cells=4, owner="w2",
        prior=merged, symmetry=False,
    )
    n = len(schemas)
    affected = n  # cells (i, victim) and (victim, j): n of them
    assert _counter("fabric.cells.planned") == planned_before + affected
    assert _counter("fabric.cells.scanned") == scanned_before + affected
    total = n * (n + 1) // 2
    assert _counter("fabric.cells.carried") == carried_before + total - affected
    assert result.cells_scanned == affected


def test_worker_streams_telemetry_frames_and_lease_events(tmp_path):
    from repro.obs.telemetry import frame_path, read_telemetry

    schemas = _universe()
    result = run_fabric_worker(tmp_path, schemas, shard_cells=4, owner="w1")
    log = read_telemetry(frame_path(tmp_path, "w1"))
    assert log.owner == "w1" and log.torn == 0
    assert log.frames[0]["phase"] == "start"
    assert log.frames[-1]["phase"] == "done"
    assert log.frames[-1]["cells_done"] == result.cells_scanned
    plan = load_plan(tmp_path)
    assert log.frames[-1]["cells_total"] == len(plan.scan_cells)
    # One acquire + one release per shard this worker completed.
    actions = [e["action"] for e in log.leases]
    assert actions.count("acquire") == result.shards_completed
    assert actions.count("release") == result.shards_completed
    assert all(e["ttl"] == 30.0 for e in log.frames if "ttl" in e)


def test_worker_telemetry_can_be_disabled(tmp_path):
    from repro.obs.telemetry import TELEMETRY_DIR

    schemas = _universe()
    run_fabric_worker(tmp_path, schemas, shard_cells=4, owner="w1",
                      telemetry=False)
    assert not (tmp_path / TELEMETRY_DIR).exists()


def test_worker_reports_lost_leases_and_pruned_resumed_cells(tmp_path):
    from repro.obs.telemetry import frame_path, read_telemetry

    schemas = _universe()
    install([
        rule("fabric.cell", "lease_expire", keys=[0], attempts=[0],
             max_fires=1),
    ])
    pruned = []
    result = run_fabric_worker(
        tmp_path, schemas, shard_cells=4, owner="w1", ttl=5.0,
        on_pruned=pruned.append,
    )
    assert result.cells_resumed >= 1
    # The journal replay on the second pass reported its resumed cells
    # as pruned work (they advance progress without entering the rate).
    assert sum(pruned) == result.cells_resumed
    log = read_telemetry(frame_path(tmp_path, "w1"))
    assert "lost" in [e["action"] for e in log.leases]


def test_thief_telemetry_records_steal_events(tmp_path):
    from repro.errors import InjectedFault
    from repro.obs.telemetry import frame_path, read_telemetry
    from repro.resilience import faults

    schemas = _universe()

    class Expiring:
        def __init__(self):
            self.now = 0.0

        def __call__(self):
            self.now += 2.0
            return self.now

    install([
        rule("fabric.cell", "lease_expire"),
        rule("fabric.shard", "raise", attempts=[1]),
    ])
    with pytest.raises(InjectedFault):
        run_fabric_worker(
            tmp_path, schemas, shard_cells=2, owner="w1", ttl=4.0,
            clock=Expiring(),
        )
    faults.clear()
    second = run_fabric_worker(
        tmp_path, schemas, shard_cells=2, owner="w2", ttl=4.0
    )
    assert second.shards_completed > 0
    log = read_telemetry(frame_path(tmp_path, "w2"))
    steals = [e for e in log.leases if e["action"] == "steal"]
    assert steals and all(e["owner"] == "w2" for e in steals)
