#!/usr/bin/env python3
"""Continuous-benchmark regression gate over ``BENCH_history.jsonl``.

Reads the report ``benchmarks/bench_perf.py`` just wrote and gates its
times against recent history.  Raw seconds from different runs are
not comparable (the machine's speed drifts by tens of percent), so every
gated time is first divided by its workload's ``calibration_s``: the
median time of a fixed pure-Python loop that calls nothing in ``repro``,
run in alternation with the workload's optimized runs.  A uniformly
faster or slower machine scales both and cancels; a change to the
program moves only the workload time.  (Dividing by the memo-off
``baseline_s`` run, as this gate once did, read every speed-up of code
that both modes share as a regression.)

1. Load prior entries of the *same mode* (``smoke``/``full``; their
   timings are not comparable to each other) that carry a calibration.
2. For each gated quantity, compare the current value (in calibration
   units) to the **median of the last ``--window`` entries** (median, not
   mean: one noisy historical run must not move the gate).  The gated
   quantities are each workload's ``optimized_median_s`` and, in full
   mode, E1's ``evaluate_self_s`` (the evaluate-phase self time of the
   traced runs).
3. A value above ``median × --threshold`` is a regression.  On any
   regression, report it and exit **1 without appending** — a regressed
   run never pollutes the history it is judged against.  Otherwise
   append the new entry and exit 0.
4. In full mode E1's time is also held to ``1 + OBS_TOLERANCE``: the
   observability hooks that stay in the code with tracing off may cost
   at most that much.  Exceeding it prints an ``OBS WARNING`` but does
   not block: ten full runs on a shared 2-vCPU machine put E1 at
   2.52–2.93 calibration units, a spread of 15 %, wider than the limit
   (docs/PERFORMANCE.md § Benchmarks).

With fewer than ``--min-history`` comparable prior entries the gate is
non-blocking: the entry is appended and the run passes, so the first CI
run on a fresh branch (or after switching modes) cannot fail.  Exit 2
means the inputs were unusable (missing/corrupt report).  Each entry also
keeps the informational optimized/baseline ``ratios``, and ``--note``
stores one line saying why the times moved since the previous entry.

Run:  python scripts/bench_history.py [--bench BENCH_perf.json]
          [--history BENCH_history.jsonl] [--threshold 1.5]
          [--window 5] [--min-history 1] [--note TEXT]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

#: A gated value may be at most ``threshold`` times the recent median.
DEFAULT_THRESHOLD = 1.5
#: Full mode: E1's optimized time may exceed its median by at most this.
OBS_TOLERANCE = 0.05
#: The median is taken over at most this many recent same-mode entries.
DEFAULT_WINDOW = 5
#: Fewer comparable prior entries than this → non-blocking pass.
DEFAULT_MIN_HISTORY = 1

_REPO_ROOT = Path(__file__).resolve().parent.parent

#: The workload whose full-mode time carries the observability guard.
OBS_WORKLOAD = "e1_theorem13_scan"
#: Gate name of E1's evaluate-phase self time.
EVALUATE_GATE = "e1_evaluate_self_s"


def load_report(path: Path) -> dict:
    """Parse a ``BENCH_perf.json`` report; raises ValueError when unusable."""
    try:
        report = json.loads(path.read_text())
    except OSError as exc:
        raise ValueError(f"cannot read bench report {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ValueError(f"bench report {path} is not valid JSON: {exc}")
    if "workloads" not in report or "mode" not in report:
        raise ValueError(f"bench report {path} lacks workloads/mode fields")
    if not any(
        isinstance(record, dict) and record.get("calibration_s")
        for record in report["workloads"].values()
    ):
        raise ValueError(f"bench report {path} lacks calibration_s")
    return report


def entry_from_report(report: dict) -> dict:
    """Reduce a bench report to one history entry."""
    ratios = {}
    optimized = {}
    medians = {}
    baseline = {}
    calibration = {}
    for name, record in report["workloads"].items():
        base = record.get("baseline_s")
        opt = record.get("optimized_s")
        if not base or opt is None:
            continue
        ratios[name] = round(opt / base, 6)
        optimized[name] = opt
        baseline[name] = base
        if record.get("optimized_median_s") is not None:
            medians[name] = record["optimized_median_s"]
        if record.get("calibration_s"):
            calibration[name] = record["calibration_s"]
    if not ratios:
        raise ValueError("bench report has no timed workloads")
    return {
        "timestamp": report.get("timestamp"),
        "mode": report["mode"],
        "python": report.get("python"),
        "machine": report.get("machine"),
        "calibration_s": calibration,
        "ratios": ratios,
        "optimized_s": optimized,
        "optimized_median_s": medians,
        "baseline_s": baseline,
        "evaluate_self_s": report["workloads"]
        .get(OBS_WORKLOAD, {})
        .get("evaluate_self_s"),
    }


def calibrated(entry: dict) -> dict:
    """The entry's gated times in calibration units ({} if uncalibrated)."""
    calibration = entry.get("calibration_s")
    if not isinstance(calibration, dict):
        return {}
    seconds = dict(entry.get("optimized_median_s", {}))
    if entry.get("mode") == "full":
        seconds[EVALUATE_GATE] = entry.get("evaluate_self_s")
    values = {}
    for name, value in seconds.items():
        # E1's evaluate phase ran next to E1's optimized runs.
        unit = calibration.get(OBS_WORKLOAD if name == EVALUATE_GATE else name)
        if isinstance(unit, (int, float)) and unit > 0 and isinstance(
            value, (int, float)
        ):
            values[name] = value / unit
    return values


def load_history(path: Path) -> list:
    """All prior entries; malformed lines are reported and skipped."""
    if not path.exists():
        return []
    entries = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            print(f"warning: {path}:{lineno}: skipping malformed line")
            continue
        if isinstance(entry, dict) and isinstance(entry.get("ratios"), dict):
            entries.append(entry)
        else:
            print(f"warning: {path}:{lineno}: skipping non-entry line")
    return entries


def check_regressions(
    entry: dict,
    history: list,
    threshold: float = DEFAULT_THRESHOLD,
    window: int = DEFAULT_WINDOW,
    min_history: int = DEFAULT_MIN_HISTORY,
) -> tuple:
    """(regressions, warnings, comparable_count) for ``entry``.

    Each regression (and each warning of the full-mode E1 observability
    limit) is a dict naming the gated quantity, the current and median
    values in calibration units, the factor allowed and the limit that
    was exceeded.  Empty lists with a comparable count below
    ``min_history`` are the non-blocking case.
    """
    same_mode = [calibrated(e) for e in history if e.get("mode") == entry["mode"]]
    comparable = [values for values in same_mode if values]
    if len(comparable) < min_history:
        return [], [], len(comparable)
    recent = comparable[-window:]
    regressions, warnings = [], []
    for name, value in sorted(calibrated(entry).items()):
        prior = [values[name] for values in recent if name in values]
        if not prior:
            continue  # quantity is new; nothing to gate against yet
        median = statistics.median(prior)
        limits = [(regressions, threshold)]
        if name == OBS_WORKLOAD and entry["mode"] == "full":
            limits.append((warnings, 1.0 + OBS_TOLERANCE))
        for found, factor in limits:
            if value > median * factor:
                found.append({
                    "workload": name,
                    "value": round(value, 6),
                    "median": round(median, 6),
                    "factor": factor,
                    "limit": round(median * factor, 6),
                    "window": len(prior),
                })
                break
    return regressions, warnings, len(comparable)


def append_entry(path: Path, entry: dict) -> None:
    with path.open("a") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--bench", default=str(_REPO_ROOT / "BENCH_perf.json"),
        help="bench report to gate (default: repo BENCH_perf.json)",
    )
    parser.add_argument(
        "--history", default=str(_REPO_ROOT / "BENCH_history.jsonl"),
        help="JSONL history to gate against and append to",
    )
    parser.add_argument(
        "--threshold", type=float, default=DEFAULT_THRESHOLD,
        help="fail when a calibrated time exceeds median × THRESHOLD "
             "(default: %(default)s)",
    )
    parser.add_argument(
        "--window", type=int, default=DEFAULT_WINDOW,
        help="median over the last N same-mode entries (default: %(default)s)",
    )
    parser.add_argument(
        "--min-history", type=int, default=DEFAULT_MIN_HISTORY,
        help="non-blocking pass below N comparable entries (default: %(default)s)",
    )
    parser.add_argument(
        "--dry-run", action="store_true",
        help="gate without appending to the history file",
    )
    parser.add_argument(
        "--note",
        help="why the times moved since the previous entry (kept in the entry)",
    )
    args = parser.parse_args(argv)

    try:
        report = load_report(Path(args.bench))
        entry = entry_from_report(report)
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    if args.note:
        entry["note"] = args.note

    history_path = Path(args.history)
    history = load_history(history_path)
    regressions, warnings, comparable = check_regressions(
        entry, history,
        threshold=args.threshold, window=args.window,
        min_history=args.min_history,
    )

    for name, value in sorted(calibrated(entry).items()):
        print(f"{entry['mode']}/{name}: {value:.4f} calibration units")

    for label, found in (("REGRESSION", regressions), ("OBS WARNING", warnings)):
        for reg in found:
            print(
                f"{label} {entry['mode']}/{reg['workload']}: "
                f"{reg['value']} > {reg['limit']} calibration units "
                f"(median {reg['median']} of last {reg['window']} "
                f"× {reg['factor']})"
            )
    if regressions:
        print("history NOT updated (regressed runs are never appended)")
        return 1

    if comparable < args.min_history:
        print(
            f"only {comparable} comparable '{entry['mode']}' entr"
            f"{'y' if comparable == 1 else 'ies'} in history "
            f"(< {args.min_history}): gate is non-blocking on this run"
        )
    else:
        print(f"no regression against {min(comparable, args.window)} recent entr"
              f"{'y' if min(comparable, args.window) == 1 else 'ies'}")
    if args.dry_run:
        print("dry run: history not updated")
    else:
        append_entry(history_path, entry)
        print(f"appended to {history_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
