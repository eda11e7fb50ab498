"""Tests for the continuous-benchmark gate (``scripts/bench_history.py``)."""

import json

import pytest


def _report(e1_optimized=0.5, e1_baseline=5.0, mode="full", calibration=1.0,
            evaluate=None, **extra_workloads):
    workloads = {
        "e1_theorem13_scan": {
            "baseline_s": e1_baseline,
            "optimized_s": e1_optimized,
            "optimized_median_s": e1_optimized,
            "calibration_s": calibration,
            "verdicts_equal": True,
        }
    }
    if evaluate is not None:
        workloads["e1_theorem13_scan"]["evaluate_self_s"] = evaluate
    workloads.update(extra_workloads)
    return {
        "timestamp": "2026-08-06T00:00:00",
        "python": "3.x",
        "machine": "test",
        "mode": mode,
        "workloads": workloads,
    }


@pytest.fixture
def paths(tmp_path):
    bench = tmp_path / "BENCH_perf.json"
    history = tmp_path / "BENCH_history.jsonl"
    return bench, history


def _run(bench_history, bench, history, report, *extra):
    bench.write_text(json.dumps(report))
    return bench_history.main(
        ["--bench", str(bench), "--history", str(history), *extra]
    )


def test_first_run_is_non_blocking_and_appends(bench_history, paths, capsys):
    bench, history = paths
    assert _run(bench_history, bench, history, _report()) == 0
    out = capsys.readouterr().out
    assert "non-blocking" in out
    entries = [json.loads(l) for l in history.read_text().splitlines()]
    assert len(entries) == 1
    assert entries[0]["ratios"]["e1_theorem13_scan"] == pytest.approx(0.1)
    assert entries[0]["mode"] == "full"


def test_unchanged_rerun_passes_and_appends(bench_history, paths):
    bench, history = paths
    assert _run(bench_history, bench, history, _report()) == 0
    assert _run(bench_history, bench, history, _report()) == 0
    assert len(history.read_text().splitlines()) == 2


def test_2x_slowdown_is_flagged_without_appending(bench_history, paths, capsys):
    bench, history = paths
    assert _run(bench_history, bench, history, _report(e1_optimized=0.5)) == 0
    capsys.readouterr()
    # Injected 2× slowdown: ratio doubles, exceeding median × 1.5.
    assert _run(bench_history, bench, history, _report(e1_optimized=1.0)) == 1
    out = capsys.readouterr().out
    assert "REGRESSION full/e1_theorem13_scan" in out
    assert "history NOT updated" in out
    assert len(history.read_text().splitlines()) == 1


def test_machine_drift_cancels_in_the_ratio(bench_history, paths):
    bench, history = paths
    assert _run(bench_history, bench, history, _report(0.5, 5.0)) == 0
    # A 3× slower machine scales the calibration loop too; the gate must
    # not fire.
    assert _run(
        bench_history, bench, history, _report(1.5, 15.0, calibration=3.0)
    ) == 0


def test_uniformly_faster_run_passes(bench_history, paths):
    bench, history = paths
    assert _run(bench_history, bench, history, _report(0.5, 5.0)) == 0
    # A 2× faster machine: every time halves, the calibration loop's too.
    assert _run(
        bench_history, bench, history, _report(0.25, 2.5, calibration=0.5)
    ) == 0


def test_speedup_shared_with_the_baseline_passes(bench_history, paths):
    bench, history = paths
    assert _run(bench_history, bench, history, _report(0.5, 5.0)) == 0
    # Code both modes run got faster: the optimized path halves while the
    # baseline falls 10×, so optimized/baseline rises from 0.1 to 0.5.
    # That is no regression; the calibrated optimized time fell.
    assert _run(bench_history, bench, history, _report(0.25, 0.5)) == 0
    assert len(history.read_text().splitlines()) == 2


def test_slower_optimized_path_still_fails(bench_history, paths, capsys):
    bench, history = paths
    assert _run(
        bench_history, bench, history, _report(0.5, 5.0, mode="smoke")
    ) == 0
    capsys.readouterr()
    # The machine got 2× faster but the optimized path did not: in
    # calibration units it is 2× slower, beyond the 1.5× threshold, even
    # though the baseline sped up with the machine.
    code = _run(
        bench_history, bench, history,
        _report(0.5, 2.5, mode="smoke", calibration=0.5),
    )
    assert code == 1
    assert "REGRESSION smoke/e1_theorem13_scan" in capsys.readouterr().out
    assert len(history.read_text().splitlines()) == 1


def test_full_mode_e1_obs_limit_warns_without_blocking(bench_history, paths, capsys):
    bench, history = paths
    for mode in ("full", "smoke"):
        assert _run(bench_history, bench, history, _report(mode=mode)) == 0
    capsys.readouterr()
    # 10% slower: within the 1.5× threshold, beyond full mode's 5% limit,
    # which warns but does not block.
    assert _run(
        bench_history, bench, history, _report(0.55, mode="smoke")
    ) == 0
    assert "OBS WARNING" not in capsys.readouterr().out
    assert _run(bench_history, bench, history, _report(0.55)) == 0
    out = capsys.readouterr().out
    assert "OBS WARNING full/e1_theorem13_scan" in out
    assert "× 1.05" in out
    assert "REGRESSION" not in out
    assert _run(bench_history, bench, history, _report(0.52)) == 0
    assert "OBS WARNING" not in capsys.readouterr().out
    # Beyond 1.5× the full-mode E1 time still blocks, without a warning.
    assert _run(bench_history, bench, history, _report(1.0)) == 1
    out = capsys.readouterr().out
    assert "REGRESSION full/e1_theorem13_scan" in out
    assert "OBS WARNING" not in out


def test_evaluate_phase_is_gated_in_full_mode(bench_history, paths, capsys):
    bench, history = paths
    assert _run(bench_history, bench, history, _report(evaluate=0.1)) == 0
    capsys.readouterr()
    assert _run(bench_history, bench, history, _report(evaluate=0.2)) == 1
    assert "REGRESSION full/e1_evaluate_self_s" in capsys.readouterr().out
    assert _run(bench_history, bench, history, _report(evaluate=0.12)) == 0


def test_uncalibrated_history_entries_are_not_comparable(bench_history, paths, capsys):
    bench, history = paths
    legacy = bench_history.entry_from_report(_report(e1_optimized=0.1))
    del legacy["calibration_s"]
    bench_history.append_entry(history, legacy)
    assert _run(bench_history, bench, history, _report(e1_optimized=0.5)) == 0
    assert "non-blocking" in capsys.readouterr().out


def test_median_is_robust_to_one_noisy_entry(bench_history, paths):
    bench, history = paths
    for optimized in (0.5, 0.5, 2.0, 0.5, 0.5):  # one outlier
        _run(bench_history, bench, history, _report(e1_optimized=optimized))
    # Median of the window is 0.1; a matching run passes despite the spike.
    assert _run(bench_history, bench, history, _report(e1_optimized=0.5)) == 0


def test_modes_are_gated_separately(bench_history, paths, capsys):
    bench, history = paths
    assert _run(bench_history, bench, history, _report(mode="full")) == 0
    capsys.readouterr()
    # First smoke entry: no comparable history → non-blocking even though
    # a (non-comparable) full entry exists.
    code = _run(
        bench_history, bench, history,
        _report(e1_optimized=5.0, e1_baseline=5.0, mode="smoke"),
    )
    assert code == 0
    assert "non-blocking" in capsys.readouterr().out


def test_new_workload_has_nothing_to_gate_against(bench_history, paths):
    bench, history = paths
    assert _run(bench_history, bench, history, _report()) == 0
    report = _report(
        e2_new={"baseline_s": 1.0, "optimized_s": 99.0, "verdicts_equal": True}
    )
    assert _run(bench_history, bench, history, report) == 0


def test_dry_run_does_not_append(bench_history, paths):
    bench, history = paths
    assert _run(bench_history, bench, history, _report(), "--dry-run") == 0
    assert not history.exists()


def test_note_is_kept_in_the_entry(bench_history, paths):
    bench, history = paths
    assert _run(bench_history, bench, history, _report(), "--note", "why") == 0
    assert _run(bench_history, bench, history, _report()) == 0
    first, second = (json.loads(l) for l in history.read_text().splitlines())
    assert first["note"] == "why"
    assert "note" not in second


def test_threshold_flag_tightens_the_gate(bench_history, paths):
    bench, history = paths
    assert _run(bench_history, bench, history, _report(e1_optimized=0.5)) == 0
    assert _run(
        bench_history, bench, history, _report(e1_optimized=0.6),
        "--threshold", "1.1",
    ) == 1


def test_malformed_history_lines_are_skipped(bench_history, paths, capsys):
    bench, history = paths
    history.write_text("{not json\n" + json.dumps({"mode": "full"}) + "\n")
    assert _run(bench_history, bench, history, _report()) == 0
    out = capsys.readouterr().out
    assert out.count("skipping") == 2


def test_unusable_report_exits_2(bench_history, paths, capsys):
    bench, history = paths
    assert bench_history.main(
        ["--bench", str(bench), "--history", str(history)]
    ) == 2
    capsys.readouterr()
    bench.write_text("{}")
    assert bench_history.main(
        ["--bench", str(bench), "--history", str(history)]
    ) == 2
    uncalibrated = _report()
    del uncalibrated["workloads"]["e1_theorem13_scan"]["calibration_s"]
    assert _run(bench_history, bench, history, uncalibrated) == 2


def test_repo_seed_history_matches_bench_report(bench_history):
    # The committed history's latest full entry must be derivable from the
    # committed BENCH_perf.json, so the gate's baseline is reproducible.
    from pathlib import Path

    root = Path(bench_history.__file__).resolve().parent.parent
    report = json.loads((root / "BENCH_perf.json").read_text())
    entries = [
        json.loads(line)
        for line in (root / "BENCH_history.jsonl").read_text().splitlines()
        if line.strip()
    ]
    assert entries, "seed history must not be empty"
    latest_full = [e for e in entries if e["mode"] == "full"][-1]
    derived = bench_history.entry_from_report(report)
    assert latest_full["ratios"] == derived["ratios"]
