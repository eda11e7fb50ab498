"""The fabric worker loop: claim, scan, heartbeat, steal, repeat.

``run_fabric_worker`` is what ``repro theorem13 --fabric DIR`` runs.  Any
number of workers may execute it concurrently against the same directory
(and the same schema universe — the plan fingerprint enforces that);
each loops over the shards, claims whatever is claimable, and scans the
claimed shard's still-missing cells one by one with
:func:`repro.core.search.theorem13_cell`, journaling each decided cell
durably as it lands.  This is the one way to spread a Theorem-13 scan
over several processes and the one way to resume an interrupted scan:
run N workers on one directory, then ``repro merge-journals DIR``.

Crash tolerance comes from three properties working together:

* a worker that dies mid-shard stops heartbeating, its lease expires,
  and a surviving worker *steals* the shard — resuming from the union
  of the dead owner's journal segments, so only the in-flight cell is
  redone; a worker that is interrupted (Ctrl-C) or fails with an
  exception releases its lease on the way out, so a rerun claims the
  shard at once;
* a worker that is merely slow discovers the theft at its next
  heartbeat (:class:`~repro.errors.LeaseExpired`), abandons the shard
  and moves on; its completed cells remain on disk and, being
  deterministic, agree with the thief's;
* when every remaining shard is owned by *live* other workers, the loop
  polls (cheap ``.done``/lease reads, no scanning) until they finish or
  expire — so "run N workers, wait for all" needs no coordinator.

Fault sites (``docs/RESILIENCE.md``): ``fabric.shard`` fires on each
successful claim (attempt = lease generation — kill rules with
``attempts=[0]`` kill first owners and spare the thieves),
``fabric.cell`` fires after each journaled cell of a shard scan,
``fabric.lease.heartbeat`` fires just before each heartbeat write, and
``telemetry.frame`` fires before each telemetry heartbeat frame.

Unless disabled (``telemetry=False``), each worker also streams
heartbeat frames and lease-transition events into
``ROOT/telemetry/<owner>.telemetry.jsonl`` (:mod:`repro.obs.telemetry`)
— the durable feed ``repro top``, ``repro fleet-status`` and the
dashboard's lease Gantt aggregate.  Lease transitions additionally land
in the obs incident buffer, so a traced run's per-worker trace file
carries them as instant events for cross-worker stitching.
"""

from __future__ import annotations

import os
import socket
import time
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence, Union

from repro.core.search import theorem13_cell
from repro.errors import FabricError, LeaseExpired
from repro.obs import events as _events
from repro.obs import metrics as _metrics
from repro.obs import telemetry as _telemetry
from repro.obs import tracing as _tracing
from repro.relational.schema import DatabaseSchema
from repro.resilience import faults as _faults
from repro.scanfabric import journal as _journal
from repro.scanfabric.lease import DEFAULT_TTL, ShardLease
from repro.scanfabric.plan import DEFAULT_SHARD_CELLS, FabricPlan, ensure_plan


def default_owner() -> str:
    """A reasonably unique owner name: ``host-pid``."""
    host = socket.gethostname().split(".")[0] or "host"
    return f"{host}-{os.getpid()}"


class FabricWorkerResult(NamedTuple):
    """What one worker contributed before the grid was fully claimed."""

    owner: str
    shards_completed: int
    shards_resumed: int
    shards_lost: int
    cells_scanned: int
    cells_resumed: int

    def summary(self) -> str:
        return (
            f"owner={self.owner} shards_completed={self.shards_completed} "
            f"shards_resumed={self.shards_resumed} "
            f"shards_lost={self.shards_lost} "
            f"cells_scanned={self.cells_scanned} "
            f"cells_resumed={self.cells_resumed}"
        )


class _ShardOutcome(NamedTuple):
    scanned: int
    resumed: int


def _scan_shard(
    root: Path,
    plan: FabricPlan,
    shard_index: int,
    schemas: Sequence[DatabaseSchema],
    lease: ShardLease,
    *,
    max_atoms: int,
    clock: Callable[[], float],
    on_cells: Optional[Callable[[int], None]],
    on_pruned: Optional[Callable[[int], None]] = None,
) -> _ShardOutcome:
    """Scan one claimed shard's missing cells into a fresh segment.

    Each decided cell is journaled durably before the next one starts.
    Between cells (never inside one) the worker refreshes its lease once
    a quarter-TTL has passed; a failed refresh raises
    :class:`LeaseExpired` and the caller abandons the shard.
    """
    assert lease.record is not None
    generation = lease.record.generation
    cells = plan.shards[shard_index]
    already = _journal.replay_shard(root, shard_index, plan.scan_fingerprint)
    remaining = [cell for cell in cells if cell not in already]
    resumed = len(already)
    if resumed and on_pruned is not None:
        # Replayed cells are finished work that took no scanning time:
        # the progress line counts them toward completion but keeps them
        # out of the throughput estimate.
        on_pruned(resumed)

    scanned = 0
    last_heartbeat = clock()
    if remaining:
        segment = _journal.segment_path(
            root, shard_index, generation, lease.owner
        )
        with _journal.ScanCheckpoint.open(
            segment, plan.scan_fingerprint
        ) as journal, _tracing.span("theorem13.scan"):
            for i, j in remaining:
                isomorphic, found, verdict = theorem13_cell(
                    schemas[i], schemas[j], max_atoms=max_atoms
                )
                if verdict != "ok":
                    # An undecided cell is never journaled, so the shard
                    # could never finish; the fabric runs without
                    # deadlines, so this is a configuration error, not a
                    # retryable state.
                    raise FabricError(
                        f"shard {shard_index}: cell ({i}, {j}) left "
                        f"undecided ({verdict}); fabric shards must decide "
                        "every cell — rerun without deadlines"
                    )
                journal.record(
                    (i, j),
                    {"isomorphic": isomorphic, "found": found, "verdict": verdict},
                )
                scanned += 1
                if on_cells is not None:
                    on_cells(1)
                _faults.fire("fabric.cell", key=shard_index, attempt=generation)
                now = clock()
                if now - last_heartbeat >= lease.ttl / 4.0:
                    _faults.fire(
                        "fabric.lease.heartbeat",
                        key=shard_index,
                        attempt=generation,
                    )
                    if not lease.heartbeat():
                        raise LeaseExpired(
                            f"shard {shard_index}: lease lost to another "
                            f"owner (owner={lease.owner}, "
                            f"generation={generation})"
                        )
                    last_heartbeat = now
    _metrics.registry().counter("fabric.cells.scanned").inc(scanned)
    return _ShardOutcome(scanned=scanned, resumed=resumed)


def run_fabric_worker(
    root: Union[str, Path],
    schemas: Sequence[DatabaseSchema],
    *,
    max_atoms: int = 2,
    owner: Optional[str] = None,
    ttl: float = DEFAULT_TTL,
    shard_cells: int = DEFAULT_SHARD_CELLS,
    symmetry: bool = True,
    prior: Optional[Union[str, Path]] = None,
    meta: Optional[dict] = None,
    poll_interval: Optional[float] = None,
    clock: Callable[[], float] = time.time,
    on_progress: Optional[Callable[[int, int, str], None]] = None,
    on_pruned: Optional[Callable[[int], None]] = None,
    telemetry: bool = True,
) -> FabricWorkerResult:
    """Cooperate on the fabric at ``root`` until every shard is done.

    Returns once every shard of the plan has a ``.done`` marker —
    whether this worker or its peers produced them.  ``on_progress``
    (same shape as the scan callback: ``(done, total, proc)``) reports
    this worker's cumulative cells over the plan's total scan cells,
    with ``proc`` fixed to the owner name; ``on_pruned`` reports cells
    replayed from existing journal segments (finished without scanning).
    ``telemetry=True`` streams heartbeat frames into ``root/telemetry/``
    for fleet monitoring.
    """
    root = Path(root)
    owner = owner or default_owner()
    plan = ensure_plan(
        root,
        schemas,
        max_atoms=max_atoms,
        shard_cells=shard_cells,
        symmetry=symmetry,
        prior=prior,
        meta=meta,
    )
    n_shards = len(plan.shards)
    total_cells = len(plan.scan_cells)
    if poll_interval is None:
        poll_interval = max(0.02, min(0.5, ttl / 4.0))
    registry = _metrics.registry()

    progress = {"cells": 0}
    current = {"shard": None, "generation": None}
    writer = (
        _telemetry.TelemetryWriter(
            _telemetry.frame_path(root, owner),
            owner,
            ttl=ttl,
            clock=clock,
            min_interval=ttl / 4.0,
        )
        if telemetry
        else None
    )

    def frame(phase: str, force: bool = False) -> None:
        if writer is not None:
            writer.frame(
                phase,
                shard=current["shard"],
                generation=current["generation"],
                cells_done=progress["cells"],
                cells_total=total_cells,
                force=force,
            )

    def lease_note(
        action: str, shard_index: int, generation: Optional[int]
    ) -> None:
        # Durable copy for the fleet aggregator and the Gantt panel...
        if writer is not None:
            writer.lease(action, shard_index, generation)
        # ...and an incident-buffer copy (with a tracer-relative ``t``
        # when a trace is live) so per-worker trace files carry lease
        # transitions as stitchable instant events.
        _events.record_incident(
            _events.lease_event(
                action,
                owner=owner,
                shard=shard_index,
                wall=clock(),
                generation=generation,
                t=_tracing.elapsed() if _tracing.tracing_enabled() else None,
            )
        )

    def report() -> None:
        if on_progress is not None:
            on_progress(progress["cells"], total_cells, owner)

    def on_cells(count: int) -> None:
        progress["cells"] += count
        report()
        frame("scan")

    report()
    frame("start", force=True)
    completed = resumed_shards = lost = scanned = resumed_cells = 0
    try:
        while True:
            all_done = True
            progressed = False
            for shard_index in range(n_shards):
                if _journal.shard_done(root, shard_index):
                    continue
                all_done = False
                lease = ShardLease(
                    _journal.lease_path(root, shard_index),
                    owner,
                    ttl=ttl,
                    clock=clock,
                )
                record = lease.try_acquire()
                if record is None:
                    continue
                current["shard"] = shard_index
                current["generation"] = record.generation
                lease_note(
                    "steal" if lease.last_acquire == "steal" else "acquire",
                    shard_index,
                    record.generation,
                )
                try:
                    _faults.fire(
                        "fabric.shard", key=shard_index, attempt=record.generation
                    )
                    outcome = _scan_shard(
                        root,
                        plan,
                        shard_index,
                        schemas,
                        lease,
                        max_atoms=max_atoms,
                        clock=clock,
                        on_cells=on_cells,
                        on_pruned=on_pruned,
                    )
                    _journal.mark_shard_done(
                        root,
                        shard_index,
                        {
                            "owner": owner,
                            "generation": record.generation,
                            "cells": len(plan.shards[shard_index]),
                        },
                    )
                except LeaseExpired:
                    lost += 1
                    registry.counter("fabric.leases.lost").inc()
                    lease_note("lost", shard_index, record.generation)
                    current["shard"] = current["generation"] = None
                    progressed = True  # cells were journaled before the loss
                    continue
                except BaseException:
                    # Interrupted or failed while holding the shard: hand
                    # the lease back before propagating, so a rerun under
                    # a fresh owner name (or a peer) claims the shard at
                    # once instead of waiting out the TTL.  A killed
                    # process never gets here; its lease expires.
                    lease.release()
                    lease_note("release", shard_index, record.generation)
                    raise
                lease.release()
                lease_note("release", shard_index, record.generation)
                current["shard"] = current["generation"] = None
                completed += 1
                scanned += outcome.scanned
                resumed_cells += outcome.resumed
                if outcome.resumed:
                    resumed_shards += 1
                progressed = True
            if all_done:
                break
            if not progressed:
                # Everything unfinished is owned by live peers: poll until
                # their markers appear or their leases expire.
                frame("idle")
                time.sleep(poll_interval)
        report()
        frame("done", force=True)
    finally:
        if writer is not None:
            writer.close()
    return FabricWorkerResult(
        owner=owner,
        shards_completed=completed,
        shards_resumed=resumed_shards,
        shards_lost=lost,
        cells_scanned=scanned,
        cells_resumed=resumed_cells,
    )
