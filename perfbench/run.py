"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload scan-wide --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs the same workload twice in one process — first plain,
then with the layer wrappers of ``layers.py`` installed — and reports the
per-layer metrics, including the traced/plain throughput ratio.  The last
line of standard output is the JSON result; everything else goes to
standard error.  The exit code is 0 when every answer was right, 1 when
some answer was wrong or a traced scan's layers explain less than 90 % of
its operation time, 2 when the program's sources are missing.

Set-up time is measured in fresh interpreters: ``SETUP_PROBES`` child
processes, half before and half after the measured phase, each import the
program and build the inputs (and, for serve-mixed, start the service),
and the run itself is one more sample; ``setup_s`` is their median.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import CALLS, INCL, ITEMS, LAYERS, SELF, TRUTHY, LayerTimer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 8

MEMO_CACHES = (
    "canonical-database",
    "chased-canonical",
    "eval-plan",
    "evaluate",
    "equality-structure",
    "equality-subst",
    "gadget-instances",
    "infer-types",
    "key-violation",
    "schema-egds",
)
QUERY_SHAPES = ("star", "chain_dangling", "bowtie", "triangle")


def percentile(values, q: float) -> float:
    """The ``q``-th percentile with linear interpolation between ranks."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _ms(values) -> float:
    return statistics.median(values) * 1000.0 if values else 0.0


def _tail_ms(values, q: float) -> float:
    return percentile(values, q) * 1000.0


def end_to_end(workload, phase, setup_s: float) -> dict:
    q = workload.tail_percentile
    tail = percentile(phase.latencies, q)
    beyond = sum(1 for v in phase.latencies if v > tail)
    print(
        f"{workload.name}: {phase.attempted} ops in {phase.busy:.2f}s, "
        f"tail = p{q:g} with {beyond} of {len(phase.latencies)} samples beyond",
        file=sys.stderr,
    )
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (_ratio(phase.timed, phase.busy), "1/s"),
        "tail_ms": (tail * 1000.0, "ms"),
        "decided_ratio": (_ratio(phase.decided, phase.attempted), "ratio"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }


def per_layer(workload, plain, traced, totals, delta) -> dict:
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (totals[layer][CALLS], "count")
        metrics[f"{layer}.self_s"] = (totals[layer][SELF], "s")
    for name, layer in (
        ("obstructions.prune_ratio", "obstructions"),
        ("validity.pass_ratio", "validity"),
        ("refute.reject_ratio", "refute"),
        ("exact.witness_ratio", "exact"),
    ):
        row = totals[layer]
        metrics[name] = (_ratio(row[TRUTHY], row[CALLS]), "ratio")
    metrics["enumerate.candidates"] = (totals["enumerate"][ITEMS], "count")
    for counter in ("pairs_tried", "gadget_rejected", "exact_checks"):
        metrics[f"search.{counter}"] = (delta.get(f"search.{counter}", 0), "count")
    for cache in MEMO_CACHES:
        hits = delta.get(f"cache.{cache}.hits", 0)
        misses = delta.get(f"cache.{cache}.misses", 0)
        metrics[f"memo.{cache}.hit_ratio"] = (_ratio(hits, hits + misses), "ratio")
        metrics[f"memo.{cache}.evictions"] = (
            delta.get(f"cache.{cache}.evictions", 0), "count"
        )
    hits = delta.get("engine.cache.hits", 0)
    misses = delta.get("engine.cache.misses", 0)
    metrics["engine.cache_hit_ratio"] = (_ratio(hits, hits + misses), "ratio")
    engine_s = totals["engine"][INCL]
    metrics["engine.request_s"] = (engine_s, "s")
    overhead = 0.0
    if engine_s:
        overhead = _ratio(sum(traced.latencies) - engine_s, len(traced.latencies))
    metrics["service.overhead_ms"] = (overhead * 1000.0, "ms")
    hit, miss = plain.extra.get("hit", []), plain.extra.get("miss", [])
    metrics["service.hit_p50_ms"] = (_ms(hit), "ms")
    metrics["service.hit_tail_ms"] = (_tail_ms(hit, workload.tail_percentile), "ms")
    metrics["service.miss_p50_ms"] = (_ms(miss), "ms")
    metrics["service.miss_tail_ms"] = (_tail_ms(miss, 90.0), "ms")
    shapes = plain.extra.get("shapes", {})
    for shape in QUERY_SHAPES:
        metrics[f"evaluate.{shape}_ms"] = (_ms(shapes.get(shape, [])), "ms")
    plain_rate = _ratio(plain.timed, plain.busy)
    traced_rate = _ratio(traced.timed, traced.busy)
    metrics["trace.overhead_ratio"] = (_ratio(plain_rate, traced_rate), "ratio")
    attributed = sum(row[SELF] for row in totals.values())
    operation_s = traced.busy + traced.extra.get("untimed_s", 0.0)
    metrics["trace.attributed_share"] = (_ratio(attributed, operation_s), "ratio")
    width = max(len(layer) for layer in LAYERS)
    for layer in LAYERS:
        row = totals[layer]
        print(
            f"  {layer:<{width}} calls {row[CALLS]:>9}  self {row[SELF]:9.3f}s"
            f"  incl {row[INCL]:9.3f}s",
            file=sys.stderr,
        )
    return metrics


def _setup_probe(args) -> float:
    """Set-up time of the workload in a fresh interpreter."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-probe",
    ]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=120, check=True
    )
    return float(done.stdout.split()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--corrupt-answer", action="store_true",
                        help="flip one expected answer (the run must fail)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"perfbench: program sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    workload = WORKLOADS[args.workload]()
    if args.setup_probe:
        start = time.perf_counter()
        workload.prepare(args.seed, args.smoke, args.corrupt_answer)
        elapsed = time.perf_counter() - start
        workload.close()
        print(repr(elapsed))
        return 0

    # The traced run reports no set-up time, so it skips the probes.  The
    # machine's speed drifts over seconds, so half the probes run before
    # the measured phase and half after it rather than back to back.
    probes = 0 if args.trace else SETUP_PROBES
    samples = [_setup_probe(args) for _ in range(probes // 2)]
    start = time.perf_counter()
    workload.prepare(args.seed, args.smoke, args.corrupt_answer)
    samples.append(time.perf_counter() - start)

    explained = True
    try:
        if args.trace:
            from repro.obs import metrics as registry_module

            plain = workload.run_phase(args.seconds / 2)
            registry = registry_module.registry()
            before = registry.snapshot()
            timer = LayerTimer()
            timer.install()
            try:
                traced = workload.run_phase(args.seconds / 2)
            finally:
                timer.uninstall()
            delta = registry_module.diff(before, registry.snapshot())
            phases = [plain, traced]
            metrics = per_layer(workload, plain, traced, timer.totals(), delta)
            share = metrics["trace.attributed_share"][0]
            if share < workload.attributed_floor:
                # Some caller no longer looks up a wrapped name, so its
                # layer's time went unseen: the per-layer figures are wrong.
                print(
                    f"perfbench: layers explain {share:.1%} of {workload.name}'s "
                    f"operation time, below {workload.attributed_floor:.0%}",
                    file=sys.stderr,
                )
                explained = False
        else:
            phases = [workload.run_phase(args.seconds)]
    finally:
        workload.close()
    if not args.trace:
        samples += [_setup_probe(args) for _ in range(probes - probes // 2)]
        metrics = end_to_end(workload, phases[0], statistics.median(samples))

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    correct = failed == 0 and explained
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
