#!/usr/bin/env python3
"""Before/after performance harness for the memo layer.

Runs the E1 (Theorem 13 scan), E6 (containment scale) and E7 (chase scale)
workloads twice:

* **baseline** — memo caches off, so nothing is reused across candidate
  pairs;
* **optimized** — memo caches on, started cold (caches cleared).

Each mode records wall time; the harness asserts that the two modes return
*identical* verdicts (the same ``ScanRow`` outcomes, containment booleans
and chase fixpoints), re-runs the E1 scan as two scan-fabric worker
processes on one directory plus the journal merge to check the parallel
path agrees as well (``parallel_verdicts_equal``), and writes everything
to ``BENCH_perf.json``.

Two observability hooks ride along (PR 3):

* **per-phase timings** — the E1 optimized run is repeated once with
  tracing on; the folded span summary (self/cumulative seconds per phase)
  lands under ``workloads.e1_theorem13_scan.phases``, together with
  ``optimized_traced_s`` so the tracing-enabled overhead is visible.
* **profiler guard** — the E1 traced run is repeated with the sampling
  profiler on (``PROFILE_HZ``), alternating with runs that trace without
  sampling; the median of the per-round ratios should exceed 1 by at
  most ``PROFILER_OVERHEAD_TOLERANCE`` (5%).  Full mode only.

The fleet-telemetry layer (PR 8) adds one more:

* **telemetry guard** — the E1 optimized run is repeated with a
  :class:`repro.obs.telemetry.TelemetryWriter` emitting a forced
  heartbeat frame per progress report (the worst case: the fabric
  worker rate-limits to ``ttl/4``); the stream may add at most
  ``TELEMETRY_OVERHEAD_TOLERANCE`` (5%) over the plain run, the two
  timed in alternation in the same run of the harness and compared like
  the profiler guard's.  Full mode only.

A violation of either guard prints a warning but does not fail the run.
E1 now takes ~0.4 s, and ten full runs on a shared 2-vCPU machine put
the profiler ratio at 0.96–1.08 and the telemetry ratio at 0.95–1.06
(docs/PERFORMANCE.md § Benchmarks).

The backend subsystem adds two more checks and a record:

* **backend sweep** — the optimized E1 scan is re-timed once per
  evaluator (``naive``/``indexed``), each patched in as the one backend
  object ``repro.cq.evaluation.evaluate`` dispatches to; every sweep
  entry must reproduce the reference verdicts
  (``backends.<name>.verdicts_equal``), and any mismatch fails the run.
* **evaluate phase** — ``evaluate_self_s`` (summed self-time of the
  ``evaluate.*`` span family) is recorded for the history gate.
* **E6 speedup floor** — the e6_containment speedup must be ≥ 1.0: the
  memo layer must not slow tiny containments (best-of extra repeats
  keeps the ~3 ms runs out of noise).  Full mode only.

In full mode ``optimized_median_s`` and the 5% guards take at least
``MEDIAN_ROUNDS`` rounds and report medians: on a shared machine the
fastest of a few runs is luck.  The other times are best-of-``repeats``.

Every check above compares runs made by one invocation of the harness.
Times from different invocations are compared only by
``scripts/bench_history.py``: feed it the resulting ``BENCH_perf.json``
and it gates the optimized times and the evaluate phase against the
medians of ``BENCH_history.jsonl``, then appends the entry.  To make
invocations comparable each workload records
``calibration_s``, the median time of a fixed pure-Python loop that calls
nothing in ``repro``, run before each of its optimized runs; the gate
divides by it.

Run:  PYTHONPATH=src python benchmarks/bench_perf.py [--smoke] [--out FILE]
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import platform
import statistics
import tempfile
import time
from pathlib import Path
from unittest import mock

from repro import obs
from repro.core import theorem13_scan
from repro.cq import evaluation
from repro.cq.backends import IndexedBackend, NaiveBackend
from repro.cq.chase import chase_egds, egds_of_schema, satisfies_egds
from repro.cq.homomorphism import is_contained_in
from repro.cq.parser import parse_query
from repro.scanfabric import merge_journals, run_fabric_worker
from repro.utils import memo
from repro.workloads import cycle_query, edge_schema, enumerate_keyed_schemas

# The sampling profiler (at PROFILE_HZ) may add at most this much to the
# tracing-enabled E1 scan.  Same-session comparison, so no drift canary
# is needed: both runs execute back to back on the same machine.
PROFILER_OVERHEAD_TOLERANCE = 0.05
PROFILE_HZ = 97.0

# A telemetry stream emitting one forced frame per progress report may
# add at most this much to the E1 scan.  Same-session comparison, like
# the profiler guard.
TELEMETRY_OVERHEAD_TOLERANCE = 0.05

# Both evaluators are timed on the E1 scan and must reproduce the
# reference verdicts exactly.
BACKEND_SWEEP = (NaiveBackend(), IndexedBackend())

# The E6 containment runs are ~3 ms each; best-of this many extra
# repeats keeps the speedup assertion out of scheduler-noise territory.
E6_REPEAT_BOOST = 5

# Full mode: the median optimized time and its calibration, the evaluate
# phase and each 5% guard take at least this many rounds and report medians.
# One E1 scan takes ~0.3 s, so a best-of-few time measures the machine's
# jitter as much as the program.
MEDIAN_ROUNDS = 20


def calibration_s() -> float:
    """Time of one run of a fixed loop that calls nothing in repro.

    Dict, tuple and string work in the interpreter, like the library's
    own hot paths, so the time tracks the machine and interpreter speed
    the workloads ran at; the history gate divides by it.
    """
    start = time.perf_counter()
    table = {}
    for i in range(200_000):
        key = (i * 7919) % 4099, i & 7
        table[key] = table.get(key, 0) + len(str(i))
    return time.perf_counter() - start


def _set_mode(optimized: bool) -> None:
    """Switch the memo caches on or off and start from cold caches."""
    memo.clear_all()
    memo.set_enabled(optimized)


def _cold_run(fn):
    """``(result, wall time)`` of one run from cold caches."""
    memo.clear_all()
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _timed(fn, repeats: int):
    """Best-of-``repeats`` wall time; caches are cleared before each run."""
    best = None
    result = None
    for _ in range(repeats):
        result, elapsed = _cold_run(fn)
        best = elapsed if best is None else min(best, elapsed)
    return result, best


def _timed_calibrated(fn, rounds: int):
    """``(median run, median calibration)`` over ``rounds`` alternations.

    Each round runs the calibration loop, then one cold run.  A machine
    that drifts slower for a stretch slows both alike, so the quotient of
    the medians tracks the program rather than the machine; the history
    gate reads it.  Medians, not bests: on a shared machine the fastest
    of a few runs is luck.  (The speedups stay best-of
    blocks of back-to-back runs: a loop before every run would chill a
    ~3 ms workload's caches.)
    """
    times, units = [], []
    for _ in range(rounds):
        units.append(calibration_s())
        times.append(_cold_run(fn)[1])
    return statistics.median(times), statistics.median(units)


def e1_workload(smoke: bool):
    """The acceptance workload: 1 type, 1 relation, arity ≤ 2, ≤ 2 atoms."""
    schemas = list(enumerate_keyed_schemas(["T"], max_relations=1, max_arity=2))
    if smoke:
        schemas = schemas[:2]
    max_atoms = 2

    def run():
        return theorem13_scan(schemas, max_atoms=max_atoms)

    def run_parallel():
        # Two fabric worker processes share one directory (one cell per
        # shard, so both get work); the merged rows are the scan's result.
        with tempfile.TemporaryDirectory() as root:
            spawn = multiprocessing.get_context("spawn")
            workers = [
                spawn.Process(
                    target=run_fabric_worker,
                    args=(root, schemas),
                    kwargs={
                        "max_atoms": max_atoms,
                        "owner": f"bench-{k}",
                        "shard_cells": 1,
                        "telemetry": False,
                    },
                )
                for k in range(2)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
            if any(worker.exitcode != 0 for worker in workers):
                raise RuntimeError("a fabric worker of the parallel E1 run failed")
            return merge_journals(root).rows

    def run_telemetry(writer):
        def on_progress(done, total, proc):
            writer.frame("scan", cells_done=done, cells_total=total, force=True)

        return theorem13_scan(
            schemas, max_atoms=max_atoms, on_progress=on_progress
        )

    return run, run_parallel, run_telemetry


def e6_workload(smoke: bool):
    schema = edge_schema()
    loop = parse_query("Q(X) :- E(X, Y), X = Y.")
    lengths = (4, 8) if smoke else (4, 8, 12, 16)

    def run():
        return [is_contained_in(loop, cycle_query(n), schema) for n in lengths]

    return run, None


def e7_workload(smoke: bool):
    from repro.cq.canonical import null_value
    from repro.relational import DatabaseInstance, Value, parse_schema

    schema, _ = parse_schema("R(k*: K, a: A, b: B)")
    egds = egds_of_schema(schema)
    groups = 64 if smoke else 256
    rows = []
    for g in range(groups):
        for i in range(4):
            rows.append(
                (
                    Value("K", g),
                    null_value("A", f"a{g}_{i}"),
                    null_value("B", f"b{g}_{i}"),
                )
            )
    instance = DatabaseInstance.from_rows(schema, {"R": rows})

    def run():
        result = chase_egds(instance, egds)
        assert satisfies_egds(result.instance, egds)
        return result.instance.total_rows()

    return run, None


WORKLOADS = {
    "e1_theorem13_scan": e1_workload,
    "e6_containment": e6_workload,
    "e7_chase": e7_workload,
}


def _traced_run(run, profile_hz=None):
    """One cold run with tracing on (and the sampler at ``profile_hz``).

    Returns ``(seconds, span records)``.
    """
    memo.clear_all()
    obs.set_enabled(True)
    obs.start_trace()
    if profile_hz:
        obs.start_profiling(profile_hz)
    try:
        start = time.perf_counter()
        run()
        elapsed = time.perf_counter() - start
    finally:
        obs.stop_profiling()
        obs.set_enabled(False)
    return elapsed, obs.drain()


def _phases(summary) -> dict:
    """Per-phase timings of a folded span summary."""
    return {
        row.name: {
            "calls": row.calls,
            "self_s": round(row.self_s, 4),
            "cumulative_s": round(row.cumulative_s, 4),
        }
        for row in summary.rows
    }


def _evaluate_self_s(phases: dict) -> float:
    """Total self-time of the evaluate phase.

    The dispatcher's span is ``evaluate.indexed``; the E1 "evaluate
    phase" is the sum over the ``evaluate.*`` family (the plain
    ``evaluate`` name covers older reports).
    """
    return sum(
        row["self_s"]
        for name, row in phases.items()
        if name == "evaluate" or name.startswith("evaluate.")
    )


def _phase_profile(run, rounds: int = 1) -> dict:
    """``rounds`` runs with tracing on; the median one, folded into phases.

    ``evaluate_self_s`` is the median over all the runs, for the history
    gate.
    """
    runs = sorted((_traced_run(run) for _ in range(rounds)), key=lambda r: r[0])
    traced_s, records = runs[(len(runs) - 1) // 2]
    summary = obs.fold(records)
    evaluate = statistics.median(
        _evaluate_self_s(_phases(obs.fold(drained))) for _, drained in runs
    )
    return {
        "optimized_traced_s": round(traced_s, 4),
        "phases": _phases(summary),
        "total_self_s": round(summary.total_self_s, 4),
        "evaluate_self_s": round(evaluate, 4),
    }


def _backend_sweep(run, reference_result, repeats: int) -> dict:
    """Time the workload once per evaluator; all must match the reference.

    Runs with caches/indexes on (the production configuration) so the
    sweep isolates the evaluator itself.  ``_timed`` empties the memo
    caches before every run, so no answer crosses entries.
    """
    results = {}
    for backend in BACKEND_SWEEP:
        with mock.patch.object(evaluation, "_BACKEND", backend):
            result, elapsed = _timed(run, repeats)
        results[backend.name] = {
            "optimized_s": round(elapsed, 4),
            "verdicts_equal": result == reference_result,
        }
    return results


def _profiler_overhead(run, rounds: int) -> dict:
    """Traced runs with and without the sampler; overhead ratio.

    The sampler needs tracing (ticks attribute to the open span stack),
    so the fair comparison is traced-with-sampler against traced-without:
    the quotient isolates the sampler's own cost.  Each of ``rounds``
    rounds runs one of each, back to back, and the ratio is the median
    of the per-round ratios, so neither a machine that drifts slower for
    a stretch nor one slow run decides it.
    """
    traced, profiled, ratios = [], [], []
    sample_total = 0
    for _ in range(rounds):
        traced.append(_traced_run(run)[0])
        profiled.append(_traced_run(run, PROFILE_HZ)[0])
        sample_total = sum(obs.drain_samples().values())
        ratios.append(profiled[-1] / traced[-1])
    ratio = statistics.median(ratios)
    return {
        "hz": PROFILE_HZ,
        "optimized_traced_s": round(statistics.median(traced), 4),
        "optimized_profiled_s": round(statistics.median(profiled), 4),
        "samples": sample_total,
        "profiled_vs_traced_ratio": round(ratio, 4),
        "tolerance": PROFILER_OVERHEAD_TOLERANCE,
        "within_tolerance": ratio <= 1.0 + PROFILER_OVERHEAD_TOLERANCE,
    }


def _telemetry_overhead(run, run_telemetry, rounds: int) -> dict:
    """Plain vs telemetry-streaming E1 runs, alternating; overhead ratio.

    The writer streams to a throwaway file with rate-limiting off
    (every progress report becomes a forced frame), so the measured
    cost is an upper bound on what a fabric worker — which limits
    itself to one frame per ``ttl/4`` seconds — ever pays.  The ratio is
    the median of per-round ratios, like the profiler guard's.
    """
    from repro.obs.telemetry import TelemetryWriter

    plain, streamed, ratios = [], [], []
    frames = 0
    with tempfile.TemporaryDirectory() as tmp:
        for index in range(rounds):
            plain.append(_cold_run(run)[1])
            memo.clear_all()
            with TelemetryWriter(
                Path(tmp) / f"bench-{index}.telemetry.jsonl", "bench"
            ) as writer:
                start = time.perf_counter()
                run_telemetry(writer)
                streamed.append(time.perf_counter() - start)
                frames = writer._seq
            ratios.append(streamed[-1] / plain[-1])
    ratio = statistics.median(ratios)
    return {
        "plain_s": round(statistics.median(plain), 4),
        "streamed_s": round(statistics.median(streamed), 4),
        "frames": frames,
        "streamed_vs_plain_ratio": round(ratio, 4),
        "tolerance": TELEMETRY_OVERHEAD_TOLERANCE,
        "within_tolerance": ratio <= 1.0 + TELEMETRY_OVERHEAD_TOLERANCE,
    }


def bench_one(name: str, smoke: bool, repeats: int, profile: bool = False) -> dict:
    build = WORKLOADS[name]
    built = build(smoke)
    run, run_parallel = built[0], built[1]
    run_telemetry = built[2] if len(built) > 2 else None
    if name == "e6_containment":
        repeats = max(repeats * E6_REPEAT_BOOST, E6_REPEAT_BOOST)

    _set_mode(optimized=False)
    baseline_result, baseline_s = _timed(run, repeats)

    _set_mode(optimized=True)
    optimized_result, optimized_s = _timed(run, repeats)
    rounds = repeats if smoke else max(repeats, MEDIAN_ROUNDS)
    median_s, calibration = _timed_calibrated(run, rounds)

    record = {
        "baseline_s": round(baseline_s, 4),
        "optimized_s": round(optimized_s, 4),
        "optimized_median_s": round(median_s, 4),
        "calibration_s": round(calibration, 4),
        "speedup": round(baseline_s / optimized_s, 2) if optimized_s else None,
        "verdicts_equal": baseline_result == optimized_result,
    }
    if run_parallel is not None:
        parallel_result, parallel_s = _timed(run_parallel, 1)
        record["optimized_2workers_s"] = round(parallel_s, 4)
        record["parallel_verdicts_equal"] = parallel_result == optimized_result
    if profile:
        record["backends"] = _backend_sweep(run, optimized_result, repeats)
        record.update(_phase_profile(run, rounds))
        record["profiler_overhead"] = _profiler_overhead(run, rounds)
        if run_telemetry is not None:
            record["telemetry_overhead"] = _telemetry_overhead(
                run, run_telemetry, rounds
            )
    _set_mode(optimized=True)
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="shrunken workloads for CI (fast; timings not representative)",
    )
    parser.add_argument("--out", default=None, help="output JSON path")
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="best-of-N timing repeats (default: 1 smoke, 5 full)",
    )
    args = parser.parse_args()
    repeats = args.repeats or (1 if args.smoke else 5)

    out = args.out
    if out is None:
        out = Path(__file__).resolve().parent.parent / "BENCH_perf.json"
    out = Path(out)

    results = {}
    for name in WORKLOADS:
        print(f"benchmarking {name} ...", flush=True)
        results[name] = bench_one(
            name, smoke=args.smoke, repeats=repeats,
            profile=(name == "e1_theorem13_scan"),
        )
        print(f"  {results[name]}", flush=True)

    report = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "mode": "smoke" if args.smoke else "full",
        "repeats": repeats,
        "workloads": results,
    }
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")

    failures = [
        name for name, r in results.items()
        if not r["verdicts_equal"] or not r.get("parallel_verdicts_equal", True)
    ]
    if failures:
        print(f"VERDICT MISMATCH in: {failures}")
        return 1
    backend_mismatch = [
        name
        for name, r in results["e1_theorem13_scan"].get("backends", {}).items()
        if not r["verdicts_equal"]
    ]
    if backend_mismatch:
        print(f"BACKEND VERDICT MISMATCH in: {backend_mismatch}")
        return 1
    # The memo layer must not slow tiny containments.
    e6_speedup = results["e6_containment"]["speedup"]
    if not args.smoke and (e6_speedup is None or e6_speedup < 1.0):
        print(f"E6 SPEEDUP below 1.0: {e6_speedup}")
        return 1
    # The 5% guards warn only: their ratios spread wider than 5% across
    # back-to-back full runs (see the module docstring).
    sampler = results["e1_theorem13_scan"].get("profiler_overhead", {})
    if not args.smoke and not sampler.get("within_tolerance", True):
        print(f"PROFILER OVERHEAD WARNING, above tolerance: {sampler}")
    streaming = results["e1_theorem13_scan"].get("telemetry_overhead", {})
    if not args.smoke and not streaming.get("within_tolerance", True):
        print(f"TELEMETRY OVERHEAD WARNING, above tolerance: {streaming}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
