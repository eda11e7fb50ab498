"""Fabric directory layout, per-shard journal segments and the journal format.

A fabric directory looks like::

    FABRIC/
      plan.json                        # frozen disposition (plan.py)
      leases/shard-00007.lease         # one lease file per shard
      shards/shard-00007.g0.host-1.jsonl   # journal segment: gen 0, owner host-1
      shards/shard-00007.g1.host-2.jsonl   # ...the thief's segment after a steal
      shards/shard-00007.done          # completion marker (atomic rename)
      merged.jsonl                     # merge output (merge.py)
      telemetry/host-1.telemetry.jsonl # heartbeat frames (obs.telemetry)
      telemetry/host-1.trace.jsonl     # per-worker span trace (cli)

Each lease generation writes its *own* segment — named by shard index,
generation and owner — so two owners of a stolen shard never co-write a
file, and no append ever races another process.  A shard's completed
cells are the **union of all its segments**: identical duplicates (two
owners both finished a cell before the steal was noticed) are fine,
conflicting duplicates are a :class:`~repro.errors.FabricError` — that
would mean the scan is not deterministic, and no merge order could be
trusted.

Segments are written ``durable`` (fsync per cell), so a takeover may
trust every complete line it reads.  A segment consisting of nothing, or
of a single torn line, is what a worker killed *during journal creation*
leaves behind; it contains no completed cells and is skipped.  Any other
malformation is real corruption and raises.

Journal format — segments and ``merged.jsonl`` alike — is one JSON object
per line, written by :func:`journal_line`::

    {"v": 1, "kind": "header", "fingerprint": {...scan configuration...}}
    {"v": 1, "kind": "cell", "key": [0, 1], "data": {...unit outcome...}}

The fingerprint is the scan's configuration
(:func:`repro.core.search.scan_fingerprint`); :func:`read_journal`
refuses a journal from a different configuration with
:class:`~repro.errors.CheckpointError` rather than silently mixing
incompatible verdicts.  A truncated final line (the writer died
mid-append) is tolerated and dropped; corruption anywhere else is an
error, and so are duplicate keys with *conflicting* data — two owners of
a stolen shard may re-record the same cell, but only with the same
outcome.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.errors import CheckpointError, FabricError

CHECKPOINT_VERSION = 1

Cell = Tuple[int, int]
Key = Tuple[int, ...]

LEASE_DIR = "leases"
SHARD_DIR = "shards"
MERGED_FILENAME = "merged.jsonl"


def _as_key(key: Union[int, Sequence[int]]) -> Key:
    if isinstance(key, int):
        return (key,)
    return tuple(int(part) for part in key)


def journal_line(kind: str, **fields) -> str:
    """One encoded journal record: ``header`` (``fingerprint=``) or
    ``cell`` (``key=``, ``data=``), newline-terminated."""
    fields.update(v=CHECKPOINT_VERSION, kind=kind)
    return json.dumps(fields, sort_keys=True) + "\n"


def read_journal(
    path: Union[str, Path],
    fingerprint: Optional[dict] = None,
) -> Tuple[dict, Dict[Key, dict]]:
    """Replay a journal read-only: ``(header_fingerprint, done)``.

    Tolerates a torn final line (the writer died mid-append) and nothing
    else.  When ``fingerprint`` is given the header must match it.
    Duplicate keys are allowed only when they carry identical data —
    conflicting duplicates mean two scans disagreed about the same unit,
    which no caller can safely resolve.
    """
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise CheckpointError(f"{path}: empty checkpoint (no header)")
    records = []
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            if number == len(lines):
                break  # torn final write: the unit never completed
            raise CheckpointError(
                f"{path}:{number}: corrupt checkpoint line: {exc}"
            ) from exc
    if not records or records[0].get("kind") != "header":
        raise CheckpointError(f"{path}: missing checkpoint header")
    header = records[0]
    if header.get("v") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: checkpoint version {header.get('v')!r} "
            f"(expected {CHECKPOINT_VERSION})"
        )
    if fingerprint is not None and header.get("fingerprint") != fingerprint:
        raise CheckpointError(
            f"{path}: checkpoint belongs to a different scan configuration; "
            "refusing to resume (delete the file or match the original flags)"
        )
    done: Dict[Key, dict] = {}
    for record in records[1:]:
        if record.get("kind") != "cell" or "key" not in record:
            raise CheckpointError(
                f"{path}: unexpected checkpoint record {record!r}"
            )
        key = _as_key(record["key"])
        data = record.get("data", {})
        if key in done and done[key] != data:
            raise CheckpointError(
                f"{path}: conflicting records for unit {list(key)}: "
                f"{done[key]!r} vs {data!r}"
            )
        done[key] = data
    return header.get("fingerprint", {}), done


class ScanCheckpoint:
    """A fresh, durable journal segment: one fsynced line per completed unit.

    Every record — the header included — is flushed and ``fsync``\\ ed
    before :meth:`record` returns, so a completed unit survives even a
    power-loss-style kill that tears a whole page of buffered writes, not
    just the final line.  A lease takeover *trusts* the previous owner's
    segment, which is why there is no cheaper mode.
    """

    def __init__(self, path: Union[str, Path], fingerprint: dict) -> None:
        self.path = Path(path)
        self._recorded: Set[Key] = set()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = self.path.open("w", encoding="utf-8")
        try:
            self._append(journal_line("header", fingerprint=fingerprint))
        except BaseException:
            self._handle.close()
            raise

    @classmethod
    def open(cls, path: Union[str, Path], fingerprint: dict) -> "ScanCheckpoint":
        """Start a segment at ``path``, truncating any existing file."""
        return cls(path, fingerprint)

    def _append(self, line: str) -> None:
        self._handle.write(line)
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def record(self, key: Union[int, Sequence[int]], data: dict) -> None:
        """Journal one completed unit; a key already recorded is ignored."""
        normalised = _as_key(key)
        if normalised in self._recorded:
            return
        self._recorded.add(normalised)
        self._append(journal_line("cell", key=list(normalised), data=data))

    def close(self) -> None:
        """Close the journal handle (recorded units stay on disk)."""
        self._handle.close()

    def __enter__(self) -> "ScanCheckpoint":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def _shard_stem(shard_index: int) -> str:
    return f"shard-{shard_index:05d}"


def lease_path(root: Union[str, Path], shard_index: int) -> Path:
    """The lease file for one shard."""
    return Path(root) / LEASE_DIR / f"{_shard_stem(shard_index)}.lease"


def _safe_owner(owner: str) -> str:
    """Owner names become filename components; neuter anything unsafe."""
    return "".join(
        ch if (ch.isalnum() or ch in "-_") else "_" for ch in owner
    ) or "owner"


def segment_path(
    root: Union[str, Path],
    shard_index: int,
    generation: int,
    owner: str,
) -> Path:
    """This (shard, lease generation, owner)'s private journal segment."""
    return (
        Path(root)
        / SHARD_DIR
        / f"{_shard_stem(shard_index)}.g{generation}.{_safe_owner(owner)}.jsonl"
    )


def segment_paths(root: Union[str, Path], shard_index: int) -> List[Path]:
    """All journal segments ever written for one shard, sorted by name."""
    shard_dir = Path(root) / SHARD_DIR
    if not shard_dir.is_dir():
        return []
    return sorted(shard_dir.glob(f"{_shard_stem(shard_index)}.g*.jsonl"))


def done_marker_path(root: Union[str, Path], shard_index: int) -> Path:
    return Path(root) / SHARD_DIR / f"{_shard_stem(shard_index)}.done"


def shard_done(root: Union[str, Path], shard_index: int) -> bool:
    """True once some owner has published the shard's completion marker."""
    return done_marker_path(root, shard_index).exists()


def mark_shard_done(
    root: Union[str, Path], shard_index: int, payload: dict
) -> Path:
    """Atomically publish the shard's ``.done`` marker.

    The marker is advisory (the merge re-derives completion from the
    segments themselves); it exists so other workers stop trying to
    claim a finished shard without replaying its journals.
    """
    path = done_marker_path(root, shard_index)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")
    os.replace(tmp, path)
    return path


def _read_segment(path: Path, fingerprint: dict) -> Optional[Dict[Cell, dict]]:
    """One segment's completed cells, or None for a died-at-birth segment.

    A worker killed between creating the file and fsyncing the header
    leaves an empty file or a single torn line; either way no cell was
    recorded, so the segment is skippable.  Everything else goes through
    the strict :func:`read_journal`.
    """
    raw = path.read_text(encoding="utf-8")
    lines = raw.splitlines()
    if not lines:
        return None
    try:
        json.loads(lines[0])
    except ValueError:
        if len(lines) == 1:
            return None  # lone torn header: the journal never got started
        raise FabricError(
            f"{path}: corrupt journal segment (unreadable header with "
            "records after it)"
        )
    _, done = read_journal(path, fingerprint)
    return {(key[0], key[1]): data for key, data in done.items()}


def replay_shard(
    root: Union[str, Path], shard_index: int, fingerprint: dict
) -> Dict[Cell, dict]:
    """The union of completed cells across all of a shard's segments.

    Raises :class:`FabricError` when two segments disagree about a cell
    — two owners are only ever allowed to *agree* redundantly.
    """
    done: Dict[Cell, dict] = {}
    origin: Dict[Cell, Path] = {}
    for path in segment_paths(root, shard_index):
        segment = _read_segment(path, fingerprint)
        if segment is None:
            continue
        for cell, data in segment.items():
            previous = done.get(cell)
            if previous is not None and previous != data:
                raise FabricError(
                    f"shard {shard_index}: conflicting verdicts for cell "
                    f"{list(cell)}: {previous!r} in {origin[cell].name} vs "
                    f"{data!r} in {path.name}; the journals cannot be merged"
                )
            done[cell] = data
            origin.setdefault(cell, path)
    return done
