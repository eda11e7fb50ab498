"""CLI-level fabric drills: concurrency, chaos, incremental re-runs.

The centrepiece is the ISSUE's chaos invariant, the same drill CI's
``fabric-chaos`` job runs: three concurrent ``theorem13 --fabric``
workers, a fault plan that OOM-kills the first owner of two shards
mid-cell, and a merge whose report must be byte-for-byte identical
(minus ``perf:``/``fabric:`` status lines) to a clean single-process
run.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.resilience import FaultPlan, faults, rule

SCAN_ARGS = [
    "theorem13", "--types", "T,U", "--max-relations", "2",
    "--max-arity", "1", "--max-atoms", "2",
]
# 5 schemas -> 15 cells -> 8 shards of <= 2 cells.
FABRIC_ARGS = ["--shard-cells", "2", "--lease-ttl", "1.0"]


def _env(extra=None):
    env = dict(os.environ)
    env.pop(faults.ENV_VAR, None)
    src_dir = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src_dir, env.get("PYTHONPATH")])
    )
    if extra:
        env.update(extra)
    return env


def _run_cli(args, tmp_path, extra_env=None):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, env=_env(extra_env), cwd=tmp_path,
        timeout=300,
    )


def _report_lines(stdout):
    # perf: lines carry wall-clock times and fabric: lines carry run-
    # specific provenance; the verdict report proper must match exactly.
    return [
        line
        for line in stdout.splitlines()
        if not line.startswith(("perf:", "fabric:"))
    ]


def test_fabric_chaos_three_workers_with_kills_matches_clean_run(tmp_path):
    clean = _run_cli(SCAN_ARGS, tmp_path)
    assert clean.returncode == 0, clean.stderr

    # Kill the generation-0 owner of shards 0 and 3 right after their
    # first journaled cell; thieves (generation >= 1) are spared.  At
    # most two of the three workers die, so the fabric always drains.
    plan = FaultPlan(
        [rule("fabric.cell", "kill", keys=[0, 3], attempts=[0])],
        install_pid=0,
    )
    chaos_env = {faults.ENV_VAR: plan.as_json()}
    worker_args = SCAN_ARGS + ["--fabric", "fab"] + FABRIC_ARGS
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "repro", *worker_args,
             "--fabric-owner", f"chaos-{i}"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=_env(chaos_env), cwd=tmp_path,
        )
        for i in range(3)
    ]
    exits = [proc.wait(timeout=300) for proc in procs]
    # Workers either finish the fabric (0) or were chaos-killed (86).
    assert set(exits) <= {0, 86}, [
        (code, proc.communicate()) for code, proc in zip(exits, procs)
    ]
    assert 0 in exits  # at least one survivor drained the grid
    assert 86 in exits  # and the drill actually killed someone

    merged = _run_cli(["merge-journals", "fab"], tmp_path)
    assert merged.returncode == 0, merged.stdout + merged.stderr
    assert _report_lines(merged.stdout) == _report_lines(clean.stdout)
    assert "scanned=15" in merged.stdout


def test_fabric_single_worker_then_incremental_carries_everything(tmp_path):
    clean = _run_cli(SCAN_ARGS, tmp_path)
    assert clean.returncode == 0, clean.stderr

    first = _run_cli(
        SCAN_ARGS + ["--fabric", "fab1"] + FABRIC_ARGS, tmp_path
    )
    assert first.returncode == 0, first.stdout + first.stderr
    merged1 = _run_cli(["merge-journals", "fab1"], tmp_path)
    assert merged1.returncode == 0, merged1.stderr
    assert _report_lines(merged1.stdout) == _report_lines(clean.stdout)

    # Incremental against the merged journal: nothing changed, so every
    # cell carries and the second fabric plans zero shards.
    second = _run_cli(
        SCAN_ARGS
        + ["--fabric", "fab2", "--incremental", "fab1/merged.jsonl"]
        + FABRIC_ARGS
        + ["--metrics-json", "m.json"],
        tmp_path,
    )
    assert second.returncode == 0, second.stdout + second.stderr
    census = json.loads((tmp_path / "m.json").read_text())["fabric"]
    assert census["cells.carried"] == 15
    assert census.get("cells.scanned", 0) == 0
    assert census.get("cells.planned", 0) == 0

    merged2 = _run_cli(["merge-journals", "fab2"], tmp_path)
    assert merged2.returncode == 0, merged2.stderr
    assert _report_lines(merged2.stdout) == _report_lines(clean.stdout)
    assert "carried=15" in merged2.stdout


def test_fabric_flag_conflicts_are_input_errors(tmp_path):
    # The fabric's journals are the only ones: there is no second kind.
    conflict = _run_cli(
        SCAN_ARGS + ["--fabric", "fab", "--checkpoint", "x.jsonl"], tmp_path
    )
    assert conflict.returncode == 2
    assert "unrecognized arguments: --checkpoint" in conflict.stderr
    deadline = _run_cli(
        SCAN_ARGS + ["--fabric", "fab", "--deadline", "10"], tmp_path
    )
    assert deadline.returncode == 2
    assert "decide every cell" in deadline.stderr
    orphan = _run_cli(
        SCAN_ARGS + ["--incremental", "prior.jsonl"], tmp_path
    )
    assert orphan.returncode == 2
    assert "--incremental requires --fabric" in orphan.stderr


def test_merge_journals_on_unfinished_fabric(tmp_path):
    # A worker killed on its very first cell leaves an unfinished
    # fabric: strict merge refuses, --partial merges the rest (exit 3).
    plan = FaultPlan(
        [rule("fabric.cell", "kill")], install_pid=0,
    )
    worker = _run_cli(
        SCAN_ARGS + ["--fabric", "fab"] + FABRIC_ARGS,
        tmp_path,
        extra_env={faults.ENV_VAR: plan.as_json()},
    )
    assert worker.returncode == 86
    strict = _run_cli(["merge-journals", "fab"], tmp_path)
    assert strict.returncode == 2
    assert "workers still running" in strict.stderr
    partial = _run_cli(["merge-journals", "fab", "--partial"], tmp_path)
    assert partial.returncode == 3, partial.stdout + partial.stderr


def test_kill_merge_leaves_no_partial_merged_journal(tmp_path):
    # The kill_merge drill: a merge process dying mid-write (exit 87)
    # must leave merged.jsonl either absent or from a previous complete
    # merge — never torn — and the re-run produces the full journal.
    worker = _run_cli(
        SCAN_ARGS + ["--fabric", "fab"] + FABRIC_ARGS, tmp_path
    )
    assert worker.returncode == 0, worker.stderr
    plan = FaultPlan(
        [rule("merge.record", "kill_merge", keys=["0,4"])], install_pid=0,
    )
    killed = _run_cli(
        ["merge-journals", "fab"],
        tmp_path,
        extra_env={faults.ENV_VAR: plan.as_json()},
    )
    assert killed.returncode == 87
    assert not (tmp_path / "fab" / "merged.jsonl").exists()
    rerun = _run_cli(["merge-journals", "fab"], tmp_path)
    assert rerun.returncode == 0, rerun.stderr
    lines = (tmp_path / "fab" / "merged.jsonl").read_text().splitlines()
    assert len(lines) == 1 + 15  # header + every cell


def test_fleet_status_after_chaos_names_all_three_workers(tmp_path):
    # The observability acceptance drill: after the kill drill, the
    # fleet aggregator must still name every worker — the dead ones from
    # their flushed (possibly torn) telemetry streams — and the JSON and
    # table renderings must agree on completion.
    plan = FaultPlan(
        [rule("fabric.cell", "kill", keys=[0, 3], attempts=[0])],
        install_pid=0,
    )
    chaos_env = {faults.ENV_VAR: plan.as_json()}
    worker_args = SCAN_ARGS + ["--fabric", "fab"] + FABRIC_ARGS
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "repro", *worker_args,
             "--fabric-owner", f"chaos-{i}"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=_env(chaos_env), cwd=tmp_path,
        )
        for i in range(3)
    ]
    exits = [proc.wait(timeout=300) for proc in procs]
    assert set(exits) <= {0, 86} and 0 in exits and 86 in exits

    status = _run_cli(["fleet-status", "fab", "--json"], tmp_path)
    assert status.returncode == 0, status.stdout + status.stderr
    snap = json.loads(status.stdout)
    owners = sorted(w["owner"] for w in snap["workers"])
    assert owners == ["chaos-0", "chaos-1", "chaos-2"]
    assert snap["complete"] is True
    assert snap["cells"]["done"] == 15
    assert snap["shards"]["stolen"] >= 1  # the survivor took over
    # Per-worker cell counts: the survivor scanned some, and everyone's
    # counts are reported (killed workers from their last flushed frame).
    assert sum(w["cells_done"] for w in snap["workers"]) >= 1

    table = _run_cli(["fleet-status", "fab"], tmp_path)
    assert table.returncode == 0
    assert "COMPLETE" in table.stdout
    for owner in owners:
        assert owner in table.stdout


def test_clean_three_worker_fleet_stitches_to_three_swimlanes(tmp_path):
    # A clean concurrent fleet (no kills: every worker survives to write
    # its span trace).  The stitched Chrome timeline must carry one
    # swimlane per worker, pass the schema validator, and invert
    # losslessly through spans_from_chrome.
    worker_args = SCAN_ARGS + ["--fabric", "fab", "--shard-cells", "2",
                               "--lease-ttl", "5.0"]
    # Every worker must lease a shard to get a swimlane.  Each claim
    # sleeps 1.5 s (well inside the 5 s TTL) before its shard is scanned,
    # so two early workers need about 4.5 s to lease all 8 shards: far
    # more than the third worker's start-up lag, however fast the scan.
    plan = FaultPlan([rule("fabric.shard", "delay", delay=1.5)], install_pid=0)
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "repro", *worker_args,
             "--fabric-owner", f"w-{i}"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=_env({faults.ENV_VAR: plan.as_json()}), cwd=tmp_path,
        )
        for i in range(3)
    ]
    exits = [proc.wait(timeout=300) for proc in procs]
    assert exits == [0, 0, 0], [proc.communicate() for proc in procs]

    stitched = _run_cli(
        ["stitch-traces", "fab", "--out", "fab/stitched.trace.json",
         "--events-out", "fab/stitched.jsonl"],
        tmp_path,
    )
    assert stitched.returncode == 0, stitched.stdout + stitched.stderr
    assert "3 workers" in stitched.stdout

    trace = json.loads((tmp_path / "fab" / "stitched.trace.json").read_text())
    lanes = {
        e["args"]["name"] for e in trace["traceEvents"]
        if e.get("ph") == "M" and e.get("name") == "process_name"
    }
    assert lanes == {"w-0", "w-1", "w-2"}

    # Lossless inversion: spans survive the Chrome round trip exactly,
    # lease instants included.
    from repro.obs.events import read_trace
    from repro.obs.export import (
        instants_from_chrome,
        spans_from_chrome,
        stitch_worker_events,
    )
    from repro.obs.telemetry import worker_trace_paths

    traces = {
        owner: read_trace(path)
        for owner, path in worker_trace_paths(tmp_path / "fab").items()
    }
    expected = stitch_worker_events(traces)
    pid_order = sorted({r.proc for r in expected.records})
    # The Chrome encoding keeps nanosecond resolution (µs rounded to
    # 3 dp), so the inversion is exact at 9 decimal places.
    quantized = [
        r._replace(start=round(r.start, 9), end=round(r.end, 9))
        for r in expected.records
    ]
    assert spans_from_chrome(trace) == sorted(
        quantized,
        key=lambda r: (pid_order.index(r.proc), r.start, r.end),
    )
    recovered = instants_from_chrome(trace)
    assert recovered == list(expected.instants)
    assert {e["owner"] for e in recovered} == {"w-0", "w-1", "w-2"}

    # Both stitched renderings pass the trace validator.
    import pathlib as _pathlib

    script = (
        _pathlib.Path(repro.__file__).resolve().parents[2]
        / "scripts" / "validate_trace.py"
    )
    check = subprocess.run(
        [sys.executable, str(script), "fab/stitched.trace.json",
         "fab/stitched.jsonl"],
        capture_output=True, text=True, env=_env(), cwd=tmp_path,
        timeout=120,
    )
    assert check.returncode == 0, check.stdout + check.stderr


def test_merge_dashboard_verdicts_match_cli_byte_for_byte(tmp_path):
    worker = _run_cli(
        SCAN_ARGS + ["--fabric", "fab"] + FABRIC_ARGS, tmp_path
    )
    assert worker.returncode == 0, worker.stderr
    merged = _run_cli(
        ["merge-journals", "fab", "--html-report", "dash.html"], tmp_path
    )
    assert merged.returncode == 0, merged.stderr
    verdict_line = next(
        line for line in merged.stdout.splitlines()
        if line.startswith("verdicts:")
    )
    html = (tmp_path / "dash.html").read_text()
    assert verdict_line in html  # byte-identical acceptance criterion
    assert "provenance: scanned=15" in html
    assert 'class="gantt"' in html  # lease ownership bars from telemetry


def test_top_exits_zero_on_complete_fabric_and_tolerates_torn_frames(tmp_path):
    worker = _run_cli(
        SCAN_ARGS + ["--fabric", "fab"] + FABRIC_ARGS, tmp_path
    )
    assert worker.returncode == 0, worker.stderr
    # Tear the telemetry stream the way a chaos kill does mid-write.
    stream = next((tmp_path / "fab" / "telemetry").glob("*.telemetry.jsonl"))
    with stream.open("a") as handle:
        handle.write('{"v": 2, "type": "telemetry", "owner"')
    top = _run_cli(
        ["top", "fab", "--interval", "0.05", "--frames", "3"], tmp_path
    )
    assert top.returncode == 0, top.stdout + top.stderr
    assert "COMPLETE" in top.stdout


def test_top_exhausts_frames_on_incomplete_fabric(tmp_path):
    # A fabric whose worker died on the first cell never completes; top
    # must stop after --frames refreshes with exit 3, not hang.
    plan = FaultPlan([rule("fabric.cell", "kill")], install_pid=0)
    worker = _run_cli(
        SCAN_ARGS + ["--fabric", "fab"] + FABRIC_ARGS,
        tmp_path,
        extra_env={faults.ENV_VAR: plan.as_json()},
    )
    assert worker.returncode == 86
    top = _run_cli(
        ["top", "fab", "--interval", "0.05", "--frames", "2"], tmp_path
    )
    assert top.returncode == 3, top.stdout + top.stderr
    assert "COMPLETE" not in top.stdout


def test_fleet_status_without_a_fabric_is_an_input_error(tmp_path):
    missing = _run_cli(["fleet-status", "nope"], tmp_path)
    assert missing.returncode == 2
    stitch = _run_cli(["stitch-traces", "nope"], tmp_path)
    assert stitch.returncode == 2
    assert "no worker traces" in stitch.stderr
