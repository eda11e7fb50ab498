"""Deterministic shard planning for the scan fabric.

A *plan* fixes, once per fabric directory, the complete disposition of
every unordered pair of the schema universe:

* ``symmetric`` — the pair is isomorphic (as an unordered pair of
  schemas, via :func:`repro.relational.isomorphism.canonical_form`) to
  an earlier pair, its *representative*.  The bounded equivalence search
  and the isomorphism test are both invariant under schema isomorphism,
  so the representative's outcome transfers; the pair is never scanned
  and the merge records a ``symmetric`` verdict pointing at the
  representative.
* ``carried`` — incremental mode only: the pair was decided by a prior
  merged journal and neither of its schemas' fingerprints (their
  deterministic ``repr``, as embedded in the scan fingerprint) changed,
  so the prior outcome is carried forward with ``carried`` provenance.
* everything else is split into contiguous *shards* of at most
  ``shard_cells`` cells — the units of lease-based ownership.

Planning is pure and deterministic: the same schemas, flags and prior
journal bytes always produce the same plan, byte for byte.  That makes
the plan-file creation race benign (two workers racing ``os.replace``
with identical bytes) and lets every worker *verify* rather than trust
``plan.json``: a worker launched with different flags or a different
prior fails fast with :class:`~repro.errors.FabricError` instead of
scanning a grid that no longer matches the plan.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.core.search import scan_fingerprint
from repro.errors import FabricError
from repro.obs import metrics as _metrics
from repro.relational.isomorphism import canonical_form
from repro.relational.schema import DatabaseSchema
from repro.scanfabric.journal import read_journal

PLAN_VERSION = 1
PLAN_FILENAME = "plan.json"
DEFAULT_SHARD_CELLS = 32

Cell = Tuple[int, int]


class FabricPlan(NamedTuple):
    """The frozen disposition of one fabric directory's pair grid.

    ``fingerprint`` is the *plan* fingerprint (scan configuration plus
    fabric knobs plus the prior journal's digest) that every cooperating
    worker must reproduce; ``scan_fingerprint`` is the plain
    :func:`~repro.core.search.scan_fingerprint` shared with shard
    journals and the merged journal, so a merged journal is a valid
    ``--incremental`` prior for the next fabric run.
    """

    fingerprint: dict
    scan_fingerprint: dict
    n_schemas: int
    shards: Tuple[Tuple[Cell, ...], ...]
    symmetric: Dict[Cell, Cell]
    carried: Dict[Cell, dict]
    meta: dict

    @property
    def all_cells(self) -> Tuple[Cell, ...]:
        """Every unordered pair of the grid, in (i, j)-sorted order."""
        return tuple(
            (i, j)
            for i in range(self.n_schemas)
            for j in range(i, self.n_schemas)
        )

    @property
    def scan_cells(self) -> Tuple[Cell, ...]:
        """The cells that actually get scanned, in shard order."""
        return tuple(cell for shard in self.shards for cell in shard)

    def census(self) -> Dict[str, int]:
        """Cell counts by disposition (plus the shard count)."""
        return {
            "shards": len(self.shards),
            "cells": len(self.all_cells),
            "scanned": len(self.scan_cells),
            "symmetric": len(self.symmetric),
            "carried": len(self.carried),
        }


def symmetry_map(schemas: Sequence[DatabaseSchema]) -> Dict[Cell, Cell]:
    """Map each redundant pair to its isomorphic representative pair.

    Two cells (i, j) and (k, l) land in the same class iff their
    *unordered* pairs of canonical forms agree — i.e. {Sᵢ, Sⱼ} and
    {Sₖ, Sₗ} are the same schemas up to isomorphism (possibly swapped,
    since equivalence and isomorphism are symmetric in their arguments).
    The first cell of each class, in (i, j)-sorted order, represents it;
    representatives are never keys of the returned map.
    """
    forms = [canonical_form(schema) for schema in schemas]
    representatives: Dict[Tuple, Cell] = {}
    redundant: Dict[Cell, Cell] = {}
    for i in range(len(schemas)):
        for j in range(i, len(schemas)):
            class_key = tuple(sorted((forms[i], forms[j]), key=repr))
            first = representatives.get(class_key)
            if first is None:
                representatives[class_key] = (i, j)
            else:
                redundant[(i, j)] = first
    return redundant


def _file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _check_prior_compatible(prior_fp: dict, scan_fp: dict, prior: Path) -> None:
    """A prior journal must come from the *same kind* of scan.

    Its schema list may differ (that is the point of incremental mode),
    but verdict-changing knobs may not: a cell decided under different
    search bounds is not the same cell.
    """
    for knob in ("kind", "max_atoms"):
        if prior_fp.get(knob) != scan_fp.get(knob):
            raise FabricError(
                f"{prior}: prior journal has {knob}={prior_fp.get(knob)!r}, "
                f"this scan has {knob}={scan_fp.get(knob)!r}; incremental "
                "re-verification needs matching scan bounds"
            )


def plan_fingerprint(
    schemas: Sequence[DatabaseSchema],
    max_atoms: int = 2,
    shard_cells: int = DEFAULT_SHARD_CELLS,
    symmetry: bool = True,
    prior: Optional[Union[str, Path]] = None,
) -> dict:
    """The full identity of a plan: scan fingerprint + fabric knobs.

    The prior journal participates by content digest, so two workers
    pointing ``--incremental`` at different files (or a mutated file)
    disagree loudly instead of carrying different cells forward.
    """
    fingerprint = scan_fingerprint("theorem13", schemas, max_atoms)
    fingerprint["fabric"] = {
        "v": PLAN_VERSION,
        "shard_cells": int(shard_cells),
        "symmetry": bool(symmetry),
        "prior": None if prior is None else _file_digest(Path(prior)),
    }
    return fingerprint


def build_plan(
    schemas: Sequence[DatabaseSchema],
    max_atoms: int = 2,
    shard_cells: int = DEFAULT_SHARD_CELLS,
    symmetry: bool = True,
    prior: Optional[Union[str, Path]] = None,
    meta: Optional[dict] = None,
) -> FabricPlan:
    """Compute a plan from scratch (pure; does not touch the fabric dir).

    Disposition precedence: ``symmetric`` beats everything (a redundant
    pair is never scanned *or* carried — its representative is), then
    ``carried`` claims cells whose prior outcome is still valid, and the
    rest are sharded for scanning.
    """
    if shard_cells < 1:
        raise FabricError(f"shard_cells must be >= 1 (got {shard_cells})")
    scan_fp = scan_fingerprint("theorem13", schemas, max_atoms)
    plan_fp = plan_fingerprint(
        schemas,
        max_atoms=max_atoms,
        shard_cells=shard_cells,
        symmetry=symmetry,
        prior=prior,
    )
    all_cells = [
        (i, j) for i in range(len(schemas)) for j in range(i, len(schemas))
    ]
    symmetric = symmetry_map(schemas) if symmetry else {}

    carried: Dict[Cell, dict] = {}
    if prior is not None:
        prior_fp, prior_done = read_journal(prior)
        _check_prior_compatible(prior_fp, scan_fp, Path(prior))
        prior_reprs = prior_fp.get("schemas", [])
        current_reprs = scan_fp["schemas"]
        unchanged = [
            index < len(prior_reprs)
            and prior_reprs[index] == current_reprs[index]
            for index in range(len(current_reprs))
        ]
        for cell in all_cells:
            if cell in symmetric:
                continue
            i, j = cell
            if not (unchanged[i] and unchanged[j]):
                continue
            data = prior_done.get(cell)
            if data is None or data.get("verdict", "ok") != "ok":
                continue
            # Carry only the outcome; a prior run's provenance marks
            # (it may itself have been merged) do not transfer.
            carried[cell] = {
                "isomorphic": data["isomorphic"],
                "found": data["found"],
                "verdict": "ok",
            }

    scan_cells = [
        cell for cell in all_cells
        if cell not in symmetric and cell not in carried
    ]
    shards = tuple(
        tuple(scan_cells[start:start + shard_cells])
        for start in range(0, len(scan_cells), shard_cells)
    )
    plan = FabricPlan(
        fingerprint=plan_fp,
        scan_fingerprint=scan_fp,
        n_schemas=len(schemas),
        shards=shards,
        symmetric=symmetric,
        carried=carried,
        meta=dict(meta or {}),
    )
    registry = _metrics.registry()
    registry.counter("fabric.cells.planned").inc(len(plan.scan_cells))
    registry.counter("fabric.cells.symmetric").inc(len(symmetric))
    registry.counter("fabric.cells.carried").inc(len(carried))
    return plan


def _plan_payload(plan: FabricPlan) -> dict:
    return {
        "v": PLAN_VERSION,
        "kind": "fabric-plan",
        "fingerprint": plan.fingerprint,
        "scan_fingerprint": plan.scan_fingerprint,
        "n_schemas": plan.n_schemas,
        "shards": [[list(cell) for cell in shard] for shard in plan.shards],
        "symmetric": [
            [list(cell), list(rep)]
            for cell, rep in sorted(plan.symmetric.items())
        ],
        "carried": [
            [list(cell), data] for cell, data in sorted(plan.carried.items())
        ],
        "meta": plan.meta,
    }


def _plan_from_payload(payload: dict, path: Path) -> FabricPlan:
    if payload.get("kind") != "fabric-plan" or payload.get("v") != PLAN_VERSION:
        raise FabricError(
            f"{path}: not a v{PLAN_VERSION} fabric plan "
            f"(kind={payload.get('kind')!r}, v={payload.get('v')!r})"
        )
    return FabricPlan(
        fingerprint=payload["fingerprint"],
        scan_fingerprint=payload["scan_fingerprint"],
        n_schemas=int(payload["n_schemas"]),
        shards=tuple(
            tuple((int(i), int(j)) for i, j in shard)
            for shard in payload["shards"]
        ),
        symmetric={
            (int(cell[0]), int(cell[1])): (int(rep[0]), int(rep[1]))
            for cell, rep in payload["symmetric"]
        },
        carried={
            (int(cell[0]), int(cell[1])): data
            for cell, data in payload["carried"]
        },
        meta=payload.get("meta", {}),
    )


def write_plan(root: Union[str, Path], plan: FabricPlan) -> Path:
    """Atomically publish ``plan`` as ``ROOT/plan.json``.

    Write-to-temp + ``os.replace`` means readers only ever see a
    complete plan.  Because planning is deterministic, two workers
    racing here replace the file with identical bytes — last writer
    wins and nobody can tell.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    path = root / PLAN_FILENAME
    tmp = root / f".{PLAN_FILENAME}.{os.getpid()}.tmp"
    tmp.write_text(
        json.dumps(_plan_payload(plan), sort_keys=True) + "\n",
        encoding="utf-8",
    )
    os.replace(tmp, path)
    return path


def load_plan(root: Union[str, Path]) -> FabricPlan:
    """Load ``ROOT/plan.json``, raising :class:`FabricError` if unusable."""
    root = Path(root)
    path = root / PLAN_FILENAME
    if not path.exists():
        raise FabricError(
            f"{root}: no {PLAN_FILENAME} — not a fabric directory "
            "(run a worker first, or pass the right --fabric DIR)"
        )
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise FabricError(f"{path}: corrupt plan file: {exc}") from exc
    return _plan_from_payload(payload, path)


def ensure_plan(
    root: Union[str, Path],
    schemas: Sequence[DatabaseSchema],
    max_atoms: int = 2,
    shard_cells: int = DEFAULT_SHARD_CELLS,
    symmetry: bool = True,
    prior: Optional[Union[str, Path]] = None,
    meta: Optional[dict] = None,
) -> FabricPlan:
    """Create the fabric directory's plan, or verify the existing one.

    Every worker calls this on startup with its own flags; the first one
    in publishes the plan, later ones check that the published plan's
    fingerprint matches what *they* would have built.  A mismatch (other
    schemas, other bounds, other prior) is a :class:`FabricError` — a
    fabric directory hosts exactly one scan configuration.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    expected = plan_fingerprint(
        schemas,
        max_atoms=max_atoms,
        shard_cells=shard_cells,
        symmetry=symmetry,
        prior=prior,
    )
    if (root / PLAN_FILENAME).exists():
        plan = load_plan(root)
        if plan.fingerprint != expected:
            raise FabricError(
                f"{root / PLAN_FILENAME}: plan belongs to a different scan "
                "configuration (schemas, bounds, shard size, symmetry or "
                "prior journal differ); use a fresh --fabric directory"
            )
        return plan
    plan = build_plan(
        schemas,
        max_atoms=max_atoms,
        shard_cells=shard_cells,
        symmetry=symmetry,
        prior=prior,
        meta=meta,
    )
    write_plan(root, plan)
    return plan
