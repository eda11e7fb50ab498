"""Crash-tolerant sharded scan fabric for Theorem-13 pair grids.

At the next schema-universe bound the finite shadow of Theorem 13
explodes combinatorially — millions of (S₁, S₂) cells — and a single
``theorem13_scan`` process owning the whole grid turns every crash or OOM
into a full restart.  This package turns the grid into a *shared work
queue on a directory* (see ``docs/RESILIENCE.md`` §"Sharded scans"), and
it is the only way to spread a scan over several processes or to resume
one: ``theorem13_scan`` itself is a single-process kernel.

* :mod:`repro.scanfabric.plan` — deterministic shard planning.  The
  grid is pre-pruned by symmetry reduction (pairs isomorphic to an
  already-planned representative, via
  :mod:`repro.relational.isomorphism`, are recorded as ``symmetric``
  instead of scanned) and, in incremental mode, by carrying forward
  cells of a prior merged journal whose schema fingerprints are
  unchanged (``carried``).  What remains is split into contiguous
  shards.
* :mod:`repro.scanfabric.lease` — fcntl-locked lease files with
  heartbeat timestamps and TTLs, so N independent ``repro theorem13
  --fabric DIR`` processes cooperate on one directory; expired leases
  are reclaimed (work stealing from crashed or straggling owners).
* :mod:`repro.scanfabric.journal` — the journal format (its one encoder
  and reader) and per-shard, per-owner journal segments, fsynced per
  cell; a reclaimed shard is resumed mid-shard from the union of its
  segments.
* :mod:`repro.scanfabric.worker` — the worker loop: claim a shard,
  decide its cells one by one with
  :func:`repro.core.search.theorem13_cell`, heartbeat between cells,
  abandon on a lost lease, mark the shard done.
* :mod:`repro.scanfabric.merge` — combine all segments into one
  fingerprint-verified merged journal and report, tolerating torn tail
  lines, rejecting conflicting duplicate cells, and resolving
  ``symmetric``/``carried`` cells so the report is byte-identical to a
  single-process scan.

The acceptance story: *kill -9 any subset of workers at any time; the
merged report is still complete and byte-identical.*
"""

from repro.scanfabric.lease import LeaseRecord, ShardLease, read_lease
from repro.scanfabric.merge import (
    MergeResult,
    MergeStats,
    merge_journals,
    write_merged,
)
from repro.scanfabric.plan import (
    FabricPlan,
    build_plan,
    ensure_plan,
    load_plan,
    plan_fingerprint,
    symmetry_map,
    write_plan,
)
from repro.scanfabric.worker import (
    FabricWorkerResult,
    default_owner,
    run_fabric_worker,
)

__all__ = [
    "FabricPlan",
    "FabricWorkerResult",
    "LeaseRecord",
    "MergeResult",
    "MergeStats",
    "ShardLease",
    "build_plan",
    "default_owner",
    "ensure_plan",
    "load_plan",
    "merge_journals",
    "plan_fingerprint",
    "read_lease",
    "run_fabric_worker",
    "symmetry_map",
    "write_merged",
    "write_plan",
]
