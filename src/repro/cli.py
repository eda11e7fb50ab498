"""Command-line interface: ``python -m repro <command> ...``.

Commands operate on schema files in the parser syntax of
:mod:`repro.relational.catalog` (starred key attributes, ``name: Type``
ascriptions, ``R[a] <= S[b]`` inclusion dependencies) and on query files
in the syntax of :mod:`repro.cq.parser`.

* ``equiv A.schema B.schema`` — decide Theorem 13 equivalence, print the
  verdict and certificate/explanation; exit code 0 iff equivalent.
* ``contains SCHEMA Q1 Q2 [--keys]`` — decide q1 ⊆ q2 (optionally under
  the schema's key dependencies); exit code 0 iff contained.
* ``minimize SCHEMA QUERY`` — print the minimised query.
* ``kappa SCHEMA`` — print κ(S).
* ``ddl SCHEMA`` — print SQL DDL for a schema file.
* ``search A.schema B.schema [--max-atoms N]`` — bounded exhaustive search
  for a dominance witness A ⪯ B; prints the witness mapping if found.
* ``theorem13 [--types T,U] [--max-relations N] [--max-arity N]`` — scan a
  whole keyed-schema universe for Theorem 13's prediction (experiment E1).

``search`` and ``theorem13`` share the observability flags
(``docs/OBSERVABILITY.md``): ``--trace FILE.jsonl`` writes a structured
span/counter/verdict event log, ``--metrics-json FILE`` dumps the metrics
registry (plus incident and pair-timeout censuses), and ``--profile``
prints a per-phase self/cumulative time table.  The consumption half
adds ``--profile-hz HZ`` (sampling profiler attributing ticks to open
spans), ``--export-chrome-trace FILE.json`` (Perfetto-loadable),
``--prometheus-out FILE.prom`` (text exposition), ``--html-report
FILE.html`` (self-contained dashboard), and ``--progress`` (live
rate/ETA line on stderr).

They also share the deadline flags (``docs/RESILIENCE.md``):
``--deadline``/``--pair-deadline`` bound the scan and each exact pair
check (expired budgets yield explicit ``timeout``/``unknown`` verdicts
and exit code 3, never a hang).  Both commands run in one process.

``theorem13 --fabric DIR`` is the one way to spread a scan over several
processes or to resume an interrupted one: it joins a crash-tolerant
sharded scan (``docs/RESILIENCE.md`` §"Sharded scans") in which any
number of workers cooperate on DIR via TTL leases with work stealing
and journal every decided cell durably; rerunning a worker resumes.
Pairs isomorphic to an already-planned representative are skipped as
``symmetric``, and ``--incremental PRIOR.jsonl`` re-verifies only cells
whose schemas changed since a prior merged journal.
``merge-journals DIR`` then combines the shard journals into one
verified report, byte-identical (modulo ``perf:``/``fabric:`` status
lines) to a single-process run.

A live fabric is watchable (``docs/OBSERVABILITY.md`` §"Watching a
fleet"): ``top DIR`` is a self-overwriting terminal monitor of worker
liveness, rates and steals; ``fleet-status DIR [--json]`` is the
scriptable one-shot (exit 0 when the fabric is complete, 3 while
in-flight); ``stitch-traces DIR`` merges every worker's span trace into
one Perfetto timeline with per-worker swimlanes and lease instants.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Sequence

from repro.core.equivalence import decide_equivalence
from repro.errors import ReproError
from repro.cq.containment_deps import is_contained_under_keys
from repro.cq.homomorphism import is_contained_in
from repro.cq.minimize import minimize
from repro.cq.parser import format_query, parse_query
from repro.mappings.kappa import kappa_schema
from repro.relational.catalog import format_schema, parse_schema
from repro.relational.ddl import to_ddl


def _load_schema(path: str):
    return parse_schema(Path(path).read_text())


def _load_query(text_or_path: str):
    candidate = Path(text_or_path)
    if candidate.exists():
        return parse_query(candidate.read_text().strip())
    return parse_query(text_or_path)


def _cmd_equiv(args: argparse.Namespace) -> int:
    s1, _ = _load_schema(args.schema1)
    s2, _ = _load_schema(args.schema2)
    decision = decide_equivalence(s1, s2)
    print(decision.explain())
    if decision.certificate is not None and args.verify:
        print("certificate re-verifies:", decision.certificate.verify())
    return 0 if decision.equivalent else 1


def _cmd_contains(args: argparse.Namespace) -> int:
    schema, _ = _load_schema(args.schema)
    q1 = _load_query(args.query1)
    q2 = _load_query(args.query2)
    if args.keys:
        verdict = is_contained_under_keys(q1, q2, schema)
        relation = "⊆ (under keys)"
    else:
        verdict = is_contained_in(q1, q2, schema)
        relation = "⊆"
    print(f"{format_query(q1)}  {relation}  {format_query(q2)} : {verdict}")
    return 0 if verdict else 1


def _cmd_minimize(args: argparse.Namespace) -> int:
    schema, _ = _load_schema(args.schema)
    query = _load_query(args.query)
    print(format_query(minimize(query, schema)))
    return 0


def _cmd_kappa(args: argparse.Namespace) -> int:
    schema, _ = _load_schema(args.schema)
    print(format_schema(kappa_schema(schema)))
    return 0


def _cmd_ddl(args: argparse.Namespace) -> int:
    schema, inclusions = _load_schema(args.schema)
    print(to_ddl(schema, inclusions), end="")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.core.proof_trace import trace_theorem13

    s1, _ = _load_schema(args.schema1)
    s2, _ = _load_schema(args.schema2)
    trace = trace_theorem13(s1, s2)
    print(trace.render())
    return 0 if trace.conclusion else 1


def _cmd_repair(args: argparse.Namespace) -> int:
    from repro.transform.repair import repair_plan

    s1, _ = _load_schema(args.schema1)
    s2, _ = _load_schema(args.schema2)
    plan = repair_plan(s1, s2)
    print(plan.render())
    print(f"total edit cost: {plan.cost}")
    return 0 if plan.is_noop else 1


def _engine_from_args(args: argparse.Namespace):
    """Build an :class:`repro.engine.Engine` from CLI flags."""
    from repro.engine import Engine, EngineConfig

    config = EngineConfig(
        deadline=getattr(args, "deadline", None),
        pair_deadline=getattr(args, "pair_deadline", None),
        max_atoms=getattr(args, "max_atoms", 2),
    )
    return Engine(config)


def _add_obs_flags(p: argparse.ArgumentParser) -> None:
    """The observability flags shared by ``search`` and ``theorem13``."""
    p.add_argument(
        "--trace", metavar="FILE.jsonl",
        help="write a structured JSONL event trace (spans, counters, verdicts)",
    )
    p.add_argument(
        "--metrics-json", metavar="FILE",
        help="write the final metrics registry as JSON",
    )
    p.add_argument(
        "--profile", action="store_true",
        help="print a per-phase self/cumulative time table",
    )
    p.add_argument(
        "--profile-hz", type=float, default=None, metavar="HZ",
        help="run the sampling profiler at HZ samples/s and attribute "
        "ticks to the open span stack",
    )
    p.add_argument(
        "--html-report", metavar="FILE.html",
        help="write a self-contained HTML dashboard (flamegraph, "
        "pair-grid heatmap, cache tiles, incident timeline)",
    )
    p.add_argument(
        "--export-chrome-trace", metavar="FILE.json",
        help="write the span tree as a Chrome trace-event file "
        "(load in Perfetto / chrome://tracing)",
    )
    p.add_argument(
        "--prometheus-out", metavar="FILE.prom",
        help="write the final metrics registry in Prometheus text "
        "exposition format",
    )
    p.add_argument(
        "--progress", action="store_true",
        help="render a live progress line (rate, ETA) on stderr while "
        "the scan runs",
    )


def _add_resilience_flags(p: argparse.ArgumentParser) -> None:
    """The deadline flags shared by ``search`` and ``theorem13``."""
    p.add_argument(
        "--deadline", type=float, metavar="SECONDS",
        help="whole-scan wall-clock budget; on expiry remaining work is "
        "reported as timeout verdicts (exit code 3) instead of hanging",
    )
    p.add_argument(
        "--pair-deadline", type=float, metavar="SECONDS",
        help="per-pair exact-check budget; timed-out pairs stay undecided",
    )


def _obs_wanted(args: argparse.Namespace) -> bool:
    return bool(
        getattr(args, "trace", None)
        or getattr(args, "profile", False)
        or getattr(args, "profile_hz", None)
        or getattr(args, "html_report", None)
        or getattr(args, "export_chrome_trace", None)
    )


def _obs_begin(args: argparse.Namespace) -> None:
    """Enable tracing (and the sampler) when any obs output was requested."""
    from repro import obs

    # Baseline for counters that must be reported per-run, not
    # process-lifetime (in-process callers like the tests reuse the
    # global registry across commands).
    args._pair_timeouts_before = int(
        obs.registry().snapshot().get("resilience.timeouts.pair", 0)
    )
    if _obs_wanted(args):
        obs.set_enabled(True)
        obs.start_trace()
    if getattr(args, "profile_hz", None):
        obs.start_profiling(args.profile_hz)


def _incident_census(incidents) -> dict:
    """Per-type incident counts plus the total, for --metrics-json."""
    by_type: dict = {}
    for event in incidents:
        kind = event.get("type", "unknown")
        by_type[kind] = by_type.get(kind, 0) + 1
    return {"total": len(incidents), "by_type": by_type}


def _hypergraph_census(snapshot) -> dict:
    """Hypergraph-statistics summary for --metrics-json.

    Derived from the plan-compiler counters/histograms
    (``hypergraph.*``, see docs/OBSERVABILITY.md): how many query plans
    were compiled, what fraction were α-acyclic, mean body atom count,
    and mean join-tree depth over the acyclic plans.
    """

    def mean(prefix: str) -> float:
        count = snapshot.get(f"{prefix}.count", 0)
        return (snapshot.get(f"{prefix}.total", 0) / count) if count else 0.0

    compiled = int(snapshot.get("hypergraph.plans.compiled", 0))
    acyclic = int(snapshot.get("hypergraph.plans.acyclic", 0))
    return {
        "plans_compiled": compiled,
        "plans_acyclic": acyclic,
        "acyclic_fraction": (acyclic / compiled) if compiled else 0.0,
        "mean_atoms": mean("hypergraph.atoms"),
        "mean_join_tree_depth": mean("hypergraph.join_tree_depth"),
    }


def _fabric_census(snapshot) -> dict:
    """Scan-fabric counters (shards leased/stolen, cell dispositions)."""
    prefix = "fabric."
    return {
        name[len(prefix):]: int(value)
        for name, value in sorted(snapshot.items())
        if name.startswith(prefix)
    }


def _obs_end(
    args: argparse.Namespace, verdicts=(), dashboard_extras=None
) -> None:
    """Emit the requested trace / metrics / profile / dashboard outputs.

    ``dashboard_extras`` (optional dict of ``provenance`` / ``leases`` /
    ``fleet``) forwards fabric-specific panels to the HTML dashboard —
    the merge command uses it for the full-grid provenance heatmap and
    the lease-ownership Gantt.
    """
    import json

    from repro import obs

    if getattr(args, "profile_hz", None):
        obs.stop_profiling()
    # Incidents are drained exactly once and shared by every consumer
    # below (event trace, metrics JSON, HTML dashboard).
    incidents = obs.drain_incidents()
    if getattr(args, "metrics_json", None):
        snapshot = obs.registry().snapshot()
        payload = {
            "v": obs.SCHEMA_VERSION,
            "metrics": obs.registry().as_dict(),
            "incidents": _incident_census(incidents),
            "pair_timeouts": (
                int(snapshot.get("resilience.timeouts.pair", 0))
                - getattr(args, "_pair_timeouts_before", 0)
            ),
            "hypergraph": _hypergraph_census(snapshot),
            "fabric": _fabric_census(snapshot),
        }
        Path(args.metrics_json).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"metrics written to {args.metrics_json}")
    if getattr(args, "prometheus_out", None):
        lines = obs.write_prometheus(
            args.prometheus_out,
            counters=obs.registry().snapshot(),
            gauges=obs.registry().gauges(),
        )
        print(
            f"prometheus metrics written to {args.prometheus_out} "
            f"({lines} metrics)"
        )
    if not _obs_wanted(args):
        return
    records = obs.drain()
    samples = obs.drain_samples()
    verdicts = list(verdicts)
    if getattr(args, "trace", None):
        lines = obs.write_trace(
            args.trace, records, counters=obs.registry().snapshot(),
            verdicts=verdicts, incidents=incidents,
        )
        print(f"trace written to {args.trace} ({lines} events)")
    if getattr(args, "export_chrome_trace", None):
        events = obs.write_chrome_trace(
            args.export_chrome_trace, records,
            counters=obs.registry().snapshot(),
            verdicts=verdicts, incidents=incidents, samples=samples,
        )
        print(
            f"chrome trace written to {args.export_chrome_trace} "
            f"({events} events)"
        )
    if getattr(args, "html_report", None):
        size = obs.write_dashboard(
            args.html_report, records, metrics=obs.registry().as_dict(),
            verdicts=verdicts, incidents=incidents, samples=samples,
            **(dashboard_extras or {}),
        )
        print(f"html report written to {args.html_report} ({size} bytes)")
    if getattr(args, "profile", False):
        print(obs.render(records, title="per-phase timings (self/cumulative)"))
    if getattr(args, "profile_hz", None) and samples:
        total = sum(samples.values())
        print(f"profiler: {total} sample(s) at {args.profile_hz:g} Hz")
    obs.set_enabled(False)


def _progress_reporter(args: argparse.Namespace, label: str):
    """The live ``--progress`` reporter, or None when not requested."""
    from repro import obs

    if not getattr(args, "progress", False):
        return None
    return obs.ProgressReporter(label=label)


def _perf_line(
    cache_hits, cache_misses, cache_evictions, backtracks, wall_time
) -> str:
    """The registry-rendered one-line perf summary.

    Evictions are included so a thrashing cache is visible at a glance.
    """
    return (
        f"perf: cache hits={cache_hits}, cache misses={cache_misses}, "
        f"cache evictions={cache_evictions}, backtracks={backtracks}, "
        f"wall time={wall_time:.3f}s"
    )


def _cmd_search(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.engine import report as engine_report

    engine = _engine_from_args(args)
    _obs_begin(args)
    s1, _ = _load_schema(args.schema1)
    s2, _ = _load_schema(args.schema2)
    reporter = _progress_reporter(args, "search")
    try:
        with obs.span("search"):
            result = engine.search_dominance(
                s1, s2,
                on_progress=None if reporter is None else reporter.update,
            )
    finally:
        if reporter is not None:
            reporter.finish()
    stats = result.stats
    verdict = engine_report.search_verdict(result)
    print(engine_report.candidates_line(stats))
    print(
        _perf_line(
            stats.cache_hits, stats.cache_misses, stats.cache_evictions,
            stats.backtracks, stats.wall_time,
        )
    )
    _obs_end(
        args,
        verdicts=[obs.events.verdict_event(found=result.found, verdict=verdict)],
    )
    if result.found:
        for line in engine_report.witness_lines(result.pair):
            print(line)
        if args.out:
            from repro.mappings.serialization import format_mapping

            Path(args.out).write_text(
                format_mapping(result.pair.alpha, header="α (forward)")
                + format_mapping(result.pair.beta, header="β (backward)")
            )
            print(f"witness mappings written to {args.out}")
        return 0
    if verdict != "ok":
        print(engine_report.inconclusive_line(verdict, stats))
        return 3
    print(engine_report.no_witness_line(args.max_atoms))
    return 1


def _universe_line(
    n_schemas: int,
    types: Sequence[str],
    max_arity: int,
    max_relations: int,
    n_rows: int,
    max_atoms: int,
) -> str:
    """The report's first line; shared by ``theorem13`` and ``merge-journals``."""
    return (
        f"universe: {n_schemas} schema(s) over types {{{', '.join(types)}}}, "
        f"max arity {max_arity}, ≤{max_relations} relation(s); "
        f"{n_rows} unordered pair(s), ≤{max_atoms} body atoms per view"
    )


def _print_scan_rows(rows) -> None:
    """The per-pair report lines, identical for live and merged scans."""
    markers = {"timeout": "t/o", "unknown": "?? "}
    for row in rows:
        if row.verdict != "ok":
            marker = markers.get(row.verdict, "?? ")
        elif row.consistent_with_theorem13:
            marker = "ok "
        else:
            marker = "XXX"
        print(
            f"  [{marker}] ({row.index1}, {row.index2}) "
            f"isomorphic={row.isomorphic} witness={row.equivalence_found}"
        )


def _print_scan_conclusion(rows) -> tuple:
    """Print the HOLDS/VIOLATED line; returns ``(consistent, decided)``."""
    consistent = all(row.consistent_with_theorem13 for row in rows)
    decided = all(row.verdict == "ok" for row in rows)
    if not consistent:
        print("Theorem 13 prediction VIOLATED — see rows above")
    elif not decided:
        undecided = sum(1 for row in rows if row.verdict != "ok")
        print(
            f"Theorem 13 prediction holds on every decided pair "
            f"({undecided} pair(s) undecided within the deadline)"
        )
    else:
        print("Theorem 13 prediction HOLDS on every pair")
    return consistent, decided


def _row_verdict_events(rows):
    from repro import obs

    return [
        obs.events.verdict_event(
            found=row.equivalence_found,
            i=row.index1,
            j=row.index2,
            isomorphic=row.isomorphic,
            consistent=row.consistent_with_theorem13,
            verdict=row.verdict,
        )
        for row in rows
    ]


def _run_theorem13_fabric(args: argparse.Namespace, schemas, types) -> int:
    """The ``theorem13 --fabric DIR`` worker mode (docs/RESILIENCE.md)."""
    from repro import obs
    from repro.scanfabric import run_fabric_worker

    if args.deadline is not None or args.pair_deadline is not None:
        raise ReproError(
            "--fabric shards must decide every cell; "
            "--deadline/--pair-deadline would leave undecidable holes "
            "(interrupt workers freely instead — journals resume)"
        )
    reporter = _progress_reporter(args, "fabric")
    # Every fabric run is traced, whether or not --trace was asked for:
    # the per-worker span trace lands next to the telemetry stream so
    # `repro stitch-traces` can merge the fleet afterwards.  (If obs was
    # already enabled by _obs_begin, the trace is simply shared.)
    forced_tracing = not obs.tracing_enabled()
    if forced_tracing:
        obs.set_enabled(True)
        obs.start_trace()
    try:
        try:
            with obs.span("theorem13.fabric"):
                result = run_fabric_worker(
                    args.fabric,
                    schemas,
                    max_atoms=args.max_atoms,
                    owner=args.fabric_owner,
                    ttl=args.lease_ttl,
                    shard_cells=args.shard_cells,
                    symmetry=not args.no_symmetry,
                    prior=args.incremental,
                    meta={
                        "types": list(types),
                        "max_relations": args.max_relations,
                        "max_arity": args.max_arity,
                        "max_atoms": args.max_atoms,
                    },
                    on_progress=None if reporter is None else reporter.update,
                    on_pruned=None if reporter is None else reporter.note_pruned,
                )
        except KeyboardInterrupt:
            print(
                "interrupted; journaled cells are safe and this worker's "
                "lease is released — rerun the same command to resume"
            )
            return 130
        finally:
            if reporter is not None:
                reporter.finish()
        trace_file = obs.trace_path(args.fabric, result.owner)
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        obs.write_trace(
            trace_file,
            obs.records(),
            counters=obs.registry().snapshot(),
            incidents=obs.peek_incidents(),
        )
        print(f"fabric: worker {result.summary()}")
        print(f"fabric: worker trace written to {trace_file}")
        print(
            f"fabric: all shards done; combine with: "
            f"repro merge-journals {args.fabric}"
        )
        _obs_end(args)
    finally:
        if forced_tracing:
            obs.drain()
            obs.drain_incidents()
            obs.set_enabled(False)
    return 0


def _cmd_theorem13(args: argparse.Namespace) -> int:
    import time

    from repro import obs
    from repro.workloads import enumerate_keyed_schemas

    engine = _engine_from_args(args)
    _obs_begin(args)
    types = [t.strip() for t in args.types.split(",") if t.strip()]
    start = time.perf_counter()
    before = obs.registry().snapshot()
    schemas = list(
        enumerate_keyed_schemas(
            types,
            max_relations=args.max_relations,
            max_arity=args.max_arity,
        )
    )
    if getattr(args, "fabric", None):
        return _run_theorem13_fabric(args, schemas, types)
    if getattr(args, "incremental", None):
        raise ReproError("--incremental requires --fabric DIR")
    reporter = _progress_reporter(args, "scan")
    try:
        with obs.span("theorem13"):
            rows = engine.theorem13_scan(
                schemas,
                on_progress=None if reporter is None else reporter.update,
            )
    except KeyboardInterrupt:
        wall = time.perf_counter() - start
        print(
            f"interrupted after {wall:.3f}s; a plain scan keeps no journal — "
            "run it with --fabric DIR to make it resumable"
        )
        return 130
    finally:
        if reporter is not None:
            reporter.finish()
    wall = time.perf_counter() - start
    delta = obs.diff(before, obs.registry().snapshot())
    print(
        _universe_line(
            len(schemas), types, args.max_arity, args.max_relations,
            len(rows), args.max_atoms,
        )
    )
    _print_scan_rows(rows)
    hits, misses, evictions = obs.cache_totals(delta)
    print(
        _perf_line(
            int(hits), int(misses), int(evictions),
            int(delta.get("hom.backtracks", 0)),
            wall,
        )
    )
    consistent, decided = _print_scan_conclusion(rows)
    verdicts = _row_verdict_events(rows)
    # The same string the HTML dashboard embeds, so report and dashboard
    # can be diffed byte-for-byte.
    print(obs.verdict_summary_line(verdicts))
    _obs_end(args, verdicts=verdicts)
    if not consistent:
        return 1
    return 0 if decided else 3


def _cmd_merge_journals(args: argparse.Namespace) -> int:
    """``repro merge-journals DIR``: fabric segments → one report + journal.

    Prints the same report a single-process ``theorem13`` run over the
    same universe would (modulo the ``perf:``/``fabric:`` status lines,
    which comparison tooling filters), so sharded-and-merged output can
    be diffed byte-for-byte against a clean run.
    """
    from repro import obs
    from repro.scanfabric import merge_journals, write_merged

    _obs_begin(args)
    result = merge_journals(
        args.fabric_dir, require_complete=not args.partial
    )
    target = write_merged(args.fabric_dir, result, path=args.out)
    plan, rows = result.plan, result.rows
    meta = plan.meta
    if meta:
        print(
            _universe_line(
                plan.n_schemas, meta["types"], meta["max_arity"],
                meta["max_relations"], len(rows), meta["max_atoms"],
            )
        )
    _print_scan_rows(rows)
    print(result.stats.census_line())
    consistent, decided = _print_scan_conclusion(rows)
    verdicts = _row_verdict_events(rows)
    print(obs.verdict_summary_line(verdicts))
    print(f"fabric: merged journal written to {target}")
    # The dashboard gets the full-grid provenance (scanned / symmetric /
    # carried per cell) and the workers' lease history for the Gantt.
    leases = [
        event
        for log in obs.read_fleet_telemetry(args.fabric_dir).values()
        for event in log.leases
    ]
    _obs_end(
        args,
        verdicts=verdicts,
        dashboard_extras={
            "provenance": result.provenance,
            "leases": leases,
        },
    )
    if not consistent:
        return 1
    complete = len(rows) == len(plan.all_cells)
    return 0 if (decided and complete) else 3


def _cmd_fleet_status(args: argparse.Namespace) -> int:
    """``repro fleet-status DIR [--json]``: one fabric snapshot.

    Exit 0 when every shard is done, 3 while the fabric is in flight
    (so scripts can poll it), 2 when DIR has no usable plan.
    """
    import json

    from repro import obs

    snap = obs.fleet_snapshot(args.fabric_dir)
    if args.json:
        print(json.dumps(snap.as_dict(), indent=2, sort_keys=True))
    else:
        print(obs.render_fleet(snap))
    return 0 if snap.complete else 3


def _cmd_top(args: argparse.Namespace) -> int:
    """``repro top DIR``: live self-overwriting fleet monitor.

    Refreshes every ``--interval`` seconds until the fabric completes
    (exit 0), ``--frames`` renders have been shown (exit 3 if still in
    flight), or Ctrl-C (exit 0 — stopping a monitor is not an error).
    """
    import time as _time

    from repro import obs

    block = obs.LiveBlock(stream=sys.stdout)
    shown = 0
    try:
        while True:
            snap = obs.fleet_snapshot(args.fabric_dir)
            block.emit(obs.render_fleet(snap))
            shown += 1
            if snap.complete:
                block.finish()
                return 0
            if args.frames is not None and shown >= args.frames:
                block.finish()
                return 3
            _time.sleep(args.interval)
    except KeyboardInterrupt:
        block.finish()
        return 0


def _cmd_stitch_traces(args: argparse.Namespace) -> int:
    """``repro stitch-traces DIR``: one Perfetto timeline for the fleet.

    Reads every per-worker trace under ``DIR/telemetry/`` and merges
    them into a single Chrome trace — a swimlane per worker process,
    lease acquire/steal/release/lost transitions as instant events.
    """
    from repro import obs

    paths = obs.worker_trace_paths(args.fabric_dir)
    if not paths:
        raise ReproError(
            f"no worker traces under {args.fabric_dir}/telemetry/ — "
            "run `theorem13 --fabric` workers against this directory first"
        )
    traces = {owner: obs.read_trace(path) for owner, path in paths.items()}
    stitched = obs.stitch_worker_events(traces)
    out = args.out or str(Path(args.fabric_dir) / "stitched.trace.json")
    events = obs.write_stitched_chrome_trace(out, stitched)
    print(
        f"stitched chrome trace written to {out} "
        f"({events} events, {len(paths)} workers, "
        f"{len(stitched.records)} spans, "
        f"{len(stitched.instants)} lease events)"
    )
    if args.events_out:
        lines = obs.write_trace(
            args.events_out, stitched.records, incidents=stitched.instants
        )
        print(
            f"stitched event trace written to {args.events_out} "
            f"({lines} events)"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: the long-running equivalence service.

    Serves until SIGTERM/SIGINT (exit 0 either way — stopping a server
    is not an error).  See docs/SERVICE.md for the API.
    """
    import asyncio

    from repro.engine import EngineConfig
    from repro.service import ServiceConfig, serve

    engine_config = EngineConfig(
        pair_deadline=args.pair_deadline,
        max_atoms=args.max_atoms,
        request_workers=args.workers,
        result_cache_path=args.cache,
        result_cache_entries=args.cache_entries,
    )
    service_config = ServiceConfig(
        host=args.host, port=args.port, deadline=args.deadline
    )

    def ready(server) -> None:
        print(
            f"repro service listening on http://{args.host}:{server.port} "
            f"({args.workers} request worker(s), "
            f"deadline cap {args.deadline if args.deadline is not None else 'none'})",
            flush=True,
        )

    try:
        return asyncio.run(
            serve(engine_config, service_config, ready=ready)
        )
    except KeyboardInterrupt:  # loop without signal-handler support
        return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse tree (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Conjunctive query equivalence of keyed relational schemas (PODS'97).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("equiv", help="decide Theorem 13 equivalence of two schema files")
    p.add_argument("schema1")
    p.add_argument("schema2")
    p.add_argument("--verify", action="store_true", help="re-verify the certificate")
    p.set_defaults(fn=_cmd_equiv)

    p = sub.add_parser("contains", help="decide CQ containment q1 ⊆ q2")
    p.add_argument("schema")
    p.add_argument("query1", help="query text or file path")
    p.add_argument("query2", help="query text or file path")
    p.add_argument("--keys", action="store_true", help="relative to key dependencies")
    p.set_defaults(fn=_cmd_contains)

    p = sub.add_parser("minimize", help="minimise a conjunctive query")
    p.add_argument("schema")
    p.add_argument("query")
    p.set_defaults(fn=_cmd_minimize)

    p = sub.add_parser("kappa", help="print κ(S) of a keyed schema")
    p.add_argument("schema")
    p.set_defaults(fn=_cmd_kappa)

    p = sub.add_parser("ddl", help="print SQL DDL for a schema file")
    p.add_argument("schema")
    p.set_defaults(fn=_cmd_ddl)

    p = sub.add_parser("trace", help="replay the Theorem 13 argument on a pair")
    p.add_argument("schema1")
    p.add_argument("schema2")
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser("repair", help="edit script making schema1 equivalent to schema2")
    p.add_argument("schema1")
    p.add_argument("schema2")
    p.set_defaults(fn=_cmd_repair)

    p = sub.add_parser("search", help="bounded exhaustive dominance search")
    p.add_argument("schema1")
    p.add_argument("schema2")
    p.add_argument("--max-atoms", type=int, default=2)
    p.add_argument("--out", help="write witness mappings to this file")
    _add_obs_flags(p)
    _add_resilience_flags(p)
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser(
        "theorem13",
        help="scan a keyed-schema universe for Theorem 13's prediction (E1)",
    )
    p.add_argument(
        "--types", default="T",
        help="comma-separated attribute type names of the universe (default: T)",
    )
    p.add_argument(
        "--max-relations", type=int, default=1,
        help="maximum relations per schema (default: 1)",
    )
    p.add_argument(
        "--max-arity", type=int, default=2,
        help="maximum relation arity (default: 2)",
    )
    p.add_argument("--max-atoms", type=int, default=2)
    _add_obs_flags(p)
    _add_resilience_flags(p)
    p.add_argument(
        "--fabric", metavar="DIR",
        help="cooperate on a crash-tolerant sharded scan in DIR: any "
        "number of workers may run this concurrently, claiming shards "
        "via TTL leases and resuming each other's journals; rerun to "
        "resume, then `repro merge-journals DIR` "
        "(docs/RESILIENCE.md §'Sharded scans')",
    )
    p.add_argument(
        "--fabric-owner", metavar="NAME", default=None,
        help="this worker's owner name in lease files (default: host-pid)",
    )
    p.add_argument(
        "--lease-ttl", type=float, default=30.0, metavar="SECONDS",
        help="shard lease TTL; a worker silent this long is presumed "
        "dead and its shard is stolen (default: 30)",
    )
    p.add_argument(
        "--shard-cells", type=int, default=32, metavar="N",
        help="cells per fabric shard (default: 32)",
    )
    p.add_argument(
        "--no-symmetry", action="store_true",
        help="scan isomorphic-duplicate pairs instead of recording them "
        "as symmetric to a representative",
    )
    p.add_argument(
        "--incremental", metavar="PRIOR.jsonl",
        help="re-verify only cells whose schema fingerprints changed "
        "since this merged journal; carry the rest forward",
    )
    p.set_defaults(fn=_cmd_theorem13)

    p = sub.add_parser(
        "serve",
        help="run the equivalence service: an HTTP/JSON API over a "
        "shared engine with a fingerprint-keyed warm result cache "
        "(docs/SERVICE.md)",
    )
    p.add_argument(
        "--host", default="127.0.0.1",
        help="interface to bind (default: 127.0.0.1)",
    )
    p.add_argument(
        "--port", type=int, default=8420,
        help="TCP port; 0 asks the OS for a free one, printed at startup "
        "(default: 8420)",
    )
    p.add_argument(
        "--workers", type=int, default=4, metavar="N",
        help="concurrent request worker threads (default: 4)",
    )
    p.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="per-request budget cap; client-requested deadlines are "
        "clamped to this, expiry yields a structured timeout verdict "
        "(default: unbounded)",
    )
    p.add_argument(
        "--pair-deadline", type=float, default=None, metavar="SECONDS",
        help="per-pair exact-check budget applied to every search request",
    )
    p.add_argument("--max-atoms", type=int, default=2)
    p.add_argument(
        "--cache", metavar="FILE.json", default=None,
        help="persist the fingerprint-keyed result cache here "
        "(loaded at startup, saved at shutdown)",
    )
    p.add_argument(
        "--cache-entries", type=int, default=1024, metavar="N",
        help="result-cache LRU bound (default: 1024)",
    )
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "merge-journals",
        help="merge a fabric directory's shard journals into one "
        "verified report (byte-identical to a single-process scan)",
    )
    p.add_argument("fabric_dir", help="the --fabric DIR the workers shared")
    p.add_argument(
        "--out", metavar="FILE.jsonl",
        help="write the merged journal here (default: DIR/merged.jsonl)",
    )
    p.add_argument(
        "--partial", action="store_true",
        help="merge what exists even if shards are unfinished (exit 3)",
    )
    _add_obs_flags(p)
    p.set_defaults(fn=_cmd_merge_journals)

    p = sub.add_parser(
        "fleet-status",
        help="one snapshot of a fabric's workers, shards and ETA "
        "(exit 0 complete, 3 in flight)",
    )
    p.add_argument("fabric_dir", help="the --fabric DIR the workers share")
    p.add_argument(
        "--json", action="store_true",
        help="machine-readable snapshot instead of the text table",
    )
    p.set_defaults(fn=_cmd_fleet_status)

    p = sub.add_parser(
        "top",
        help="live self-overwriting monitor of a fabric's worker fleet",
    )
    p.add_argument("fabric_dir", help="the --fabric DIR the workers share")
    p.add_argument(
        "--interval", type=float, default=1.0, metavar="SECONDS",
        help="refresh interval (default: 1.0)",
    )
    p.add_argument(
        "--frames", type=int, default=None, metavar="N",
        help="stop after N renders (default: run until complete/Ctrl-C)",
    )
    p.set_defaults(fn=_cmd_top)

    p = sub.add_parser(
        "stitch-traces",
        help="merge a fabric's per-worker traces into one Perfetto "
        "timeline with lease instant events",
    )
    p.add_argument("fabric_dir", help="the --fabric DIR the workers shared")
    p.add_argument(
        "--out", metavar="FILE.json",
        help="stitched Chrome trace path (default: DIR/stitched.trace.json)",
    )
    p.add_argument(
        "--events-out", metavar="FILE.jsonl",
        help="also write the merged span/lease stream as a schema-valid "
        "JSONL trace",
    )
    p.set_defaults(fn=_cmd_stitch_traces)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Exit codes: 0 = positive verdict, 1 = negative verdict,
    2 = input error (bad schema/query file, or a fabric journal or plan
    from another scan configuration),
    3 = inconclusive (a --deadline/--pair-deadline budget expired before
    the scan could decide), 130 = interrupted, 141 = stdout closed early
    (``repro ... | head``; 128 + SIGPIPE, as a shell reports it).
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader went away.  Point stdout at devnull so the
        # interpreter's exit-time flush of what is still buffered cannot
        # fail a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
