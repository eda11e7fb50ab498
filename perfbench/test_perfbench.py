"""The benchmark's own tests.

Run from the repository root with ``python3 -m pytest perfbench -q``.  Each
smoke run uses tiny inputs (``--smoke``) and a one-second budget.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def _run(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(done) -> dict:
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace, kind):
    done = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    result = _result(done)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {metric["name"]: metric["unit"] for metric in SPEC[kind]}
    emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert emitted == expected
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())
    if kind == "per_layer" and workload.startswith("scan-"):
        assert result["metrics"]["trace.attributed_share"]["value"] >= 0.9


def test_a_traced_scan_its_layers_do_not_explain_fails(monkeypatch, capsys):
    """Wrappers that see no calls (callers bound the names elsewhere) fail the run."""
    import run

    monkeypatch.setattr(run.LayerTimer, "install", lambda self: None)
    code = run.main(["--workload", "scan-wide", "--seed", "3", "--seconds", "1",
                     "--trace", "1", "--smoke"])
    assert code == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 0


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_a_corrupted_expected_answer_fails_the_run(workload):
    done = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", "0", "--smoke", "--corrupt-answer")
    assert done.returncode == 1, done.stderr
    result = _result(done)
    assert result["correct"] is False and result["failed"] >= 1


def test_without_program_sources_the_run_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "scan-wide", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path,
                script=tmp_path / "perfbench" / "run.py")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_the_seed_changes_names_and_streams_not_the_work():
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    def universe(seed):
        return workloads.keyed_universe(seed, ["T", "U"], 2, 3, True)

    (first, labels), (again, _), (other, other_labels) = (
        universe(7), universe(7), universe(8)
    )
    assert [repr(s) for s in first] == [repr(s) for s in again]
    assert [repr(s) for s in first] != [repr(s) for s in other]
    assert labels == other_labels  # same classes, same cells, same answers

    def streams(seed):
        return workloads.ServeMixed().question_streams(seed, True, False)

    assert streams(7) == streams(7)
    assert streams(7)[1] != streams(8)[1]
