"""Acceptance tests: scans under injected faults.

* a fault plan killing the first owner of every fabric shard still ends
  with merged rows identical to the fault-free scan;
* a deadline-capped run returns partial results with explicit timeout
  verdicts instead of hanging;
* a ``KeyboardInterrupt`` mid-scan leaves the fabric's journals usable,
  and rerunning the same worker reproduces the uninterrupted report
  byte-for-byte (excluding perf and fabric status lines).

A plain ``theorem13_scan`` keeps no journal: the scan fabric is the one
way to resume a scan or to survive a killed worker.  The kill drill at
CLI level, three concurrent workers, is
``tests/scanfabric/test_fabric_cli.py::test_fabric_chaos_three_workers_with_kills_matches_clean_run``.
"""

import multiprocessing
import os
import pathlib
import subprocess
import sys
import time

import pytest

import repro

from repro.core.search import search_dominance, theorem13_scan
from repro.obs import metrics
from repro.relational import parse_schema
from repro.resilience import FaultPlan, faults, install, rule
from repro.scanfabric import merge_journals, run_fabric_worker
from repro.obs.telemetry import frame_path, read_telemetry
from repro.scanfabric.journal import read_journal
from repro.scanfabric.lease import read_lease
from repro.utils import memo

EMP = "emp(ss*: SSN, name: Name)"
PERSON = "person(id*: SSN, nm: Name)"
WIDE = "person(id*: SSN, nm: Name, extra: Name)"

FORK = multiprocessing.get_context("fork")


def _schema(text):
    return parse_schema(text)[0]


def _schemas():
    return [_schema(EMP), _schema(PERSON), _schema(WIDE)]


def _counter(name):
    return metrics.registry().snapshot().get(name, 0)


def _fabric_worker(root, schemas, owner, **extra):
    return run_fabric_worker(
        root, schemas, max_atoms=1, shard_cells=1, owner=owner,
        telemetry=False, **extra,
    )


def test_worker_kill_per_round_reproduces_fault_free_verdicts(tmp_path):
    # Every first owner of a shard is OOM-killed right after journaling
    # its first cell (attempts=(0,) spares the thieves), yet the fabric
    # finishes with the same rows as a clean scan.
    schemas = _schemas()
    baseline = theorem13_scan(schemas, max_atoms=1)
    stolen_before = _counter("fabric.shards.stolen")
    install([rule("fabric.cell", "kill", attempts=[0])])
    workers = [
        FORK.Process(
            target=_fabric_worker, args=(tmp_path, schemas, f"w{k}"),
            kwargs={"ttl": 1.0},
        )
        for k in range(2)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=120)
    assert [worker.exitcode for worker in workers] == [86, 86]
    # The installing process is never killed.  Its clock runs far enough
    # ahead to steal both dead owners' leases; it finishes the rest.
    _fabric_worker(
        tmp_path, schemas, "thief", ttl=1.0, clock=lambda: time.time() + 100.0
    )
    faults.clear()
    assert merge_journals(tmp_path).rows == baseline
    assert _counter("fabric.shards.stolen") >= stolen_before + 2


def test_deadline_expires_mid_chase():
    # A chase round that sleeps past the whole-search budget must be
    # caught by the cooperative poll inside the chase loop, not hang:
    # the result comes back explicitly incomplete.
    memo.clear_all()  # cold caches so the chase actually runs
    install([rule("chase.round", "delay", delay=0.05, max_fires=2)])
    result = search_dominance(
        _schema(EMP), _schema(PERSON), max_atoms=1, deadline=0.04
    )
    assert not result.complete
    assert not result.found


def test_pair_deadline_times_out_individual_pairs():
    # A per-pair budget converts a slow pair check into a counted
    # timeout; the scan itself still runs to completion.
    memo.clear_all()
    install([rule("chase.round", "delay", delay=0.05, max_fires=3)])
    result = search_dominance(
        _schema(EMP), _schema(PERSON), max_atoms=1, pair_deadline=0.01
    )
    assert result.complete
    assert result.stats.pair_timeouts > 0


def test_sequential_deadline_zero_yields_explicit_timeout_rows():
    schemas = _schemas()
    rows = theorem13_scan(schemas, max_atoms=1, deadline=0.0)
    assert len(rows) == 6
    assert all(row.verdict == "timeout" for row in rows)
    # Undecided rows are vacuously consistent: no claim, no violation.
    assert all(row.consistent_with_theorem13 for row in rows)


def test_interrupt_leaves_checkpoint_and_resume_matches(tmp_path):
    # API level: Ctrl-C right after the first journaled cell leaves a
    # segment holding that cell; rerunning the same worker resumes from
    # it and the merge matches an uninterrupted scan.
    schemas = _schemas()
    baseline = theorem13_scan(schemas, max_atoms=1)
    install([rule("fabric.cell", "interrupt", max_fires=1)])
    with pytest.raises(KeyboardInterrupt):
        _fabric_worker(tmp_path, schemas, "w1")
    faults.clear()
    segments = sorted((tmp_path / "shards").glob("*.jsonl"))
    assert sum(len(read_journal(path)[1]) for path in segments) == 1

    resumed = _fabric_worker(tmp_path, schemas, "w1")
    assert resumed.cells_resumed == 1
    assert merge_journals(tmp_path).rows == baseline


def test_interrupt_releases_the_lease_so_a_new_owner_resumes_at_once(tmp_path):
    # Ctrl-C mid-shard hands the lease back: a rerun under a fresh owner
    # name (the default owner is ``host-pid``, new on every run) claims
    # the shard at once instead of waiting out the default 30 s TTL.
    schemas = _schemas()
    baseline = theorem13_scan(schemas, max_atoms=1)
    install([rule("fabric.cell", "interrupt", max_fires=1)])
    with pytest.raises(KeyboardInterrupt):
        run_fabric_worker(tmp_path, schemas, max_atoms=1, shard_cells=1, owner="w1")
    faults.clear()
    leases = [read_lease(path) for path in sorted((tmp_path / "leases").glob("*.lease"))]
    assert [(lease.owner, lease.released) for lease in leases] == [("w1", True)]
    actions = [e["action"] for e in read_telemetry(frame_path(tmp_path, "w1")).leases]
    assert actions == ["acquire", "release"]

    start = time.monotonic()
    resumed = _fabric_worker(tmp_path, schemas, "w2")
    assert time.monotonic() - start < 10.0
    assert resumed.cells_resumed == 1
    assert merge_journals(tmp_path).rows == baseline


def _run_cli(args, tmp_path, extra_env=None):
    env = dict(os.environ)
    env.pop(faults.ENV_VAR, None)
    src_dir = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src_dir, env.get("PYTHONPATH")])
    )
    if extra_env:
        env.update(extra_env)
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
    )


def _report_lines(stdout):
    # perf: lines carry wall-clock times and fabric: lines carry run-
    # specific status; everything else must match.
    return [
        line
        for line in stdout.splitlines()
        if not line.startswith(("perf:", "fabric:"))
    ]


UNIVERSE_ARGS = [
    "theorem13", "--types", "T", "--max-relations", "1", "--max-arity", "2",
]


def test_cli_resume_reproduces_uninterrupted_report(tmp_path):
    # CLI level, byte-for-byte minus perf:/fabric: lines.
    scan_args = UNIVERSE_ARGS + ["--max-atoms", "1"]
    clean = _run_cli(scan_args, tmp_path)
    assert clean.returncode == 0, clean.stderr

    fabric_args = scan_args + [
        "--fabric", "fab", "--fabric-owner", "w1", "--shard-cells", "2",
    ]
    plan = FaultPlan(
        [rule("fabric.cell", "interrupt", max_fires=1)], install_pid=0
    )
    interrupted = _run_cli(
        fabric_args, tmp_path, extra_env={faults.ENV_VAR: plan.as_json()}
    )
    assert interrupted.returncode == 130, interrupted.stdout + interrupted.stderr
    assert "journaled cells are safe" in interrupted.stdout
    assert "rerun the same command to resume" in interrupted.stdout

    resumed = _run_cli(fabric_args, tmp_path)
    assert resumed.returncode == 0, resumed.stdout + resumed.stderr
    assert "cells_resumed=1" in resumed.stdout
    merged = _run_cli(["merge-journals", "fab"], tmp_path)
    assert merged.returncode == 0, merged.stdout + merged.stderr
    assert _report_lines(merged.stdout) == _report_lines(clean.stdout)


def test_cli_checkpoint_mismatch_is_an_input_error(tmp_path):
    base = UNIVERSE_ARGS + ["--fabric", "fab"]
    first = _run_cli(base + ["--max-atoms", "1"], tmp_path)
    assert first.returncode == 0, first.stderr
    # Same fabric directory, different scan configuration: refuse to resume.
    mismatched = _run_cli(base + ["--max-atoms", "2"], tmp_path)
    assert mismatched.returncode == 2
    assert "different scan configuration" in mismatched.stderr


def test_cli_interrupted_plain_scan_points_to_the_fabric(capsys):
    # A plain scan has nothing to resume from: Ctrl-C still exits 130,
    # and the message names the resumable alternative.
    from repro.cli import main

    memo.clear_all()  # cold caches so the chase actually runs
    install([rule("chase.round", "interrupt", max_fires=1)])
    code = main(UNIVERSE_ARGS + ["--max-atoms", "1"])
    out = capsys.readouterr().out
    assert code == 130
    assert "--fabric DIR" in out
