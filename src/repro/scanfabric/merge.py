"""Crash-safe merge of fabric journal segments into one report.

``repro merge-journals DIR`` runs :func:`merge_journals` +
:func:`write_merged`: replay every shard's segments (union semantics,
torn tails tolerated, conflicting duplicate cells a hard error),
resolve ``symmetric`` cells from their representatives and ``carried``
cells from the plan, and emit

* a full grid of :class:`~repro.core.search.ScanRow`\\ s — **byte-for-byte
  identical**, once printed, to what a single uninterrupted
  ``theorem13_scan`` over the same universe would report (provenance
  never changes an outcome, only explains where it came from);
* ``merged.jsonl`` — a fingerprint-verified journal of the whole grid in
  the journal format of :mod:`repro.scanfabric.journal`, written to a
  temp file and published by ``os.replace``.  A merge process killed mid-write (the
  ``kill_merge`` fault drill) leaves at worst a stale temp file; the
  previous ``merged.jsonl``, if any, is intact, and re-running the merge
  produces the identical file.  The merged journal's fingerprint is the
  *plain* scan fingerprint, so it doubles as the ``--incremental`` prior
  of the next fabric run.

Cell data in ``merged.jsonl`` carries a ``provenance`` mark —
``scanned``, ``symmetric`` (plus ``symmetric_to: [i, j]``) or
``carried`` — which incremental planning strips before re-carrying.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from repro.core.search import ScanRow
from repro.errors import FabricError
from repro.obs import metrics as _metrics
from repro.resilience import faults as _faults
from repro.scanfabric import journal as _journal
from repro.scanfabric.plan import FabricPlan, load_plan

Cell = Tuple[int, int]


class MergeStats(NamedTuple):
    """Counts the merge can assert on (and the CLI census line prints)."""

    shards: int
    cells: int
    cells_scanned: int
    cells_symmetric: int
    cells_carried: int

    def census_line(self) -> str:
        return (
            f"fabric: shards={self.shards} cells={self.cells} "
            f"scanned={self.cells_scanned} symmetric={self.cells_symmetric} "
            f"carried={self.cells_carried}"
        )


class MergeResult(NamedTuple):
    """The merged grid plus per-cell provenance."""

    plan: FabricPlan
    rows: List[ScanRow]
    provenance: Dict[Cell, dict]
    stats: MergeStats


def merge_journals(
    root: Union[str, Path], require_complete: bool = True
) -> MergeResult:
    """Combine every shard's journal segments into the full pair grid.

    With ``require_complete`` (the default) an unfinished shard — any
    planned cell absent from all of its segments — is a
    :class:`FabricError`; ``require_complete=False`` is for peeking at a
    fabric mid-flight and leaves the missing cells out of ``rows``.
    """
    root = Path(root)
    plan = load_plan(root)
    scanned: Dict[Cell, dict] = {}
    missing_total = 0
    for shard_index, shard in enumerate(plan.shards):
        _faults.fire("merge.shard", key=shard_index)
        done = _journal.replay_shard(root, shard_index, plan.scan_fingerprint)
        for cell, data in done.items():
            if cell not in shard:
                raise FabricError(
                    f"shard {shard_index}: journal records cell {list(cell)} "
                    "which the plan assigns elsewhere; plan and journals "
                    "disagree"
                )
            scanned[cell] = data
        missing = [cell for cell in shard if cell not in done]
        if missing:
            if require_complete:
                raise FabricError(
                    f"shard {shard_index}: {len(missing)} of "
                    f"{len(shard)} cell(s) not yet journaled (first: "
                    f"{list(missing[0])}) — are workers still running?  "
                    "Finish the scan, or pass --partial to merge anyway"
                )
            missing_total += len(missing)

    def resolve(cell: Cell) -> Optional[Tuple[dict, dict]]:
        """(outcome, provenance) for one cell, or None if unscanned."""
        data = scanned.get(cell)
        if data is not None:
            return data, {"provenance": "scanned"}
        data = plan.carried.get(cell)
        if data is not None:
            return data, {"provenance": "carried"}
        representative = plan.symmetric.get(cell)
        if representative is not None:
            resolved = resolve(representative)
            if resolved is None:
                return None
            # Representatives are never themselves symmetric (they are
            # the first of their class), so this recurses at most once.
            return resolved[0], {
                "provenance": "symmetric",
                "symmetric_to": list(representative),
            }
        return None

    rows: List[ScanRow] = []
    provenance: Dict[Cell, dict] = {}
    counts = {"scanned": 0, "symmetric": 0, "carried": 0}
    for cell in plan.all_cells:
        resolved = resolve(cell)
        if resolved is None:
            continue  # only reachable with require_complete=False
        data, mark = resolved
        rows.append(
            ScanRow(
                cell[0],
                cell[1],
                data["isomorphic"],
                data["found"],
                data.get("verdict", "ok"),
            )
        )
        provenance[cell] = mark
        counts[mark["provenance"]] += 1
    stats = MergeStats(
        shards=len(plan.shards),
        cells=len(rows),
        cells_scanned=counts["scanned"],
        cells_symmetric=counts["symmetric"],
        cells_carried=counts["carried"],
    )
    registry = _metrics.registry()
    registry.counter("fabric.merge.cells.scanned").inc(stats.cells_scanned)
    registry.counter("fabric.merge.cells.symmetric").inc(stats.cells_symmetric)
    registry.counter("fabric.merge.cells.carried").inc(stats.cells_carried)
    return MergeResult(plan=plan, rows=rows, provenance=provenance, stats=stats)


def write_merged(
    root: Union[str, Path],
    result: MergeResult,
    path: Optional[Union[str, Path]] = None,
) -> Path:
    """Publish the merged journal atomically (default ``ROOT/merged.jsonl``).

    The file is a standard journal (header + cell lines, in grid order,
    encoded by :func:`~repro.scanfabric.journal.journal_line`) whose cell
    data additionally carries provenance marks.
    Everything is written and fsynced to a temp file first; ``os.replace``
    makes the publish all-or-nothing, so a crash mid-merge can never
    leave a half-written ``merged.jsonl`` behind.
    """
    root = Path(root)
    target = Path(path) if path is not None else root / _journal.MERGED_FILENAME
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    plan = result.plan
    with tmp.open("w", encoding="utf-8") as handle:
        handle.write(
            _journal.journal_line("header", fingerprint=plan.scan_fingerprint)
        )
        for row in result.rows:
            cell = (row.index1, row.index2)
            _faults.fire("merge.record", key=f"{cell[0]},{cell[1]}")
            data = {
                "isomorphic": row.isomorphic,
                "found": row.equivalence_found,
                "verdict": row.verdict,
            }
            data.update(result.provenance[cell])
            handle.write(_journal.journal_line("cell", key=list(cell), data=data))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, target)
    return target
