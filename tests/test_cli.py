"""Unit tests for the command-line interface."""

import pytest

from repro.cli import main

SCHEMA_A = """
emp(ss*: SSN, name: Name)
"""
SCHEMA_B = """
person(id*: SSN, nm: Name)
"""
SCHEMA_C = """
person(id*: SSN, nm: Name, extra: Name)
"""
SCHEMA_RS = """
R(a*: T, b: U)
S(c*: U, d: T)
"""


@pytest.fixture
def schema_files(tmp_path):
    paths = {}
    for name, text in [
        ("a", SCHEMA_A),
        ("b", SCHEMA_B),
        ("c", SCHEMA_C),
        ("rs", SCHEMA_RS),
    ]:
        path = tmp_path / f"{name}.schema"
        path.write_text(text)
        paths[name] = str(path)
    return paths


def test_equiv_positive(schema_files, capsys):
    code = main(["equiv", schema_files["a"], schema_files["b"], "--verify"])
    out = capsys.readouterr().out
    assert code == 0
    assert "equivalent" in out
    assert "certificate re-verifies: True" in out


def test_equiv_negative(schema_files, capsys):
    code = main(["equiv", schema_files["a"], schema_files["c"]])
    out = capsys.readouterr().out
    assert code == 1
    assert "NOT" in out


def test_contains_inline_queries(schema_files, capsys):
    code = main(
        [
            "contains",
            schema_files["rs"],
            "Q(X) :- R(X, Y), S(C, D), Y = C.",
            "Q(X) :- R(X, Y).",
        ]
    )
    assert code == 0
    assert "True" in capsys.readouterr().out


def test_contains_under_keys(schema_files, capsys):
    code = main(
        [
            "contains",
            schema_files["rs"],
            "--keys",
            "Q(Y, Y2) :- R(X, Y), R(X2, Y2), X = X2.",
            "Q(Y, Y) :- R(X, Y).",
        ]
    )
    assert code == 0


def test_contains_query_file(schema_files, tmp_path, capsys):
    qfile = tmp_path / "q1.cq"
    qfile.write_text("Q(X) :- R(X, Y).\n")
    code = main(
        ["contains", schema_files["rs"], str(qfile), "Q(X) :- R(X, Y)."]
    )
    assert code == 0


def test_minimize(schema_files, capsys):
    code = main(
        ["minimize", schema_files["rs"], "Q(X) :- R(X, Y), R(A, B)."]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("R(") == 1


def test_kappa(schema_files, capsys):
    code = main(["kappa", schema_files["rs"]])
    out = capsys.readouterr().out
    assert code == 0
    assert "R(a: T)" in out
    assert "S(c: U)" in out


def test_ddl(schema_files, capsys):
    code = main(["ddl", schema_files["rs"]])
    out = capsys.readouterr().out
    assert code == 0
    assert "CREATE TABLE" in out and "PRIMARY KEY" in out


def test_search_found(schema_files, capsys):
    code = main(
        ["search", schema_files["a"], schema_files["b"], "--max-atoms", "1"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "witness found" in out


def test_search_one_way_dominance(schema_files, capsys):
    """A schema IS dominated by a larger one — only equivalence fails."""
    code = main(
        ["search", schema_files["a"], schema_files["c"], "--max-atoms", "1"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "witness found" in out


def test_search_not_found(schema_files, capsys):
    """The reverse direction: the larger schema cannot be dominated by the
    smaller one (Lemmas 3 + 10 make it impossible)."""
    code = main(
        ["search", schema_files["c"], schema_files["a"], "--max-atoms", "1"]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "no witness" in out


def test_bad_input_exit_code_2(tmp_path, capsys):
    empty = tmp_path / "empty.schema"
    empty.write_text("")
    code = main(["equiv", str(empty), str(empty)])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err


def test_missing_file_exit_code_2(capsys):
    code = main(["kappa", "/nonexistent/path.schema"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_trace_command(schema_files, capsys):
    code = main(["trace", schema_files["a"], schema_files["b"]])
    out = capsys.readouterr().out
    assert code == 0
    assert "Theorem 13 proof trace" in out
    assert "EQUIVALENT" in out


def test_trace_command_negative(schema_files, capsys):
    code = main(["trace", schema_files["a"], schema_files["c"]])
    out = capsys.readouterr().out
    assert code == 1
    assert "NOT equivalent" in out


def test_repair_command(schema_files, capsys):
    code = main(["repair", schema_files["a"], schema_files["c"]])
    out = capsys.readouterr().out
    assert code == 1
    assert "total edit cost: 1" in out


def test_repair_command_noop(schema_files, capsys):
    code = main(["repair", schema_files["a"], schema_files["b"]])
    out = capsys.readouterr().out
    assert code == 0
    assert "already equivalent" in out


def test_search_writes_witness_file(schema_files, tmp_path, capsys):
    out_file = tmp_path / "witness.map"
    code = main(
        [
            "search",
            schema_files["a"],
            schema_files["b"],
            "--max-atoms",
            "1",
            "--out",
            str(out_file),
        ]
    )
    assert code == 0
    content = out_file.read_text()
    assert ":-" in content and "#" in content


def test_search_prints_perf_line(schema_files, capsys):
    code = main(
        ["search", schema_files["a"], schema_files["b"], "--max-atoms", "1"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "cache hits=" in out and "wall time=" in out


@pytest.mark.parametrize("command", ["contains", "search", "theorem13", "serve"])
def test_help_lists_no_evaluator_or_cache_toggles(command, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    out = capsys.readouterr().out
    for flag in ("--backend", "--no-cache", "--no-index"):
        assert flag not in out


@pytest.mark.parametrize("command", ["search", "theorem13", "serve"])
def test_help_lists_no_pool_or_checkpoint_flags(command, capsys):
    # A scan runs in one process; --fabric DIR is the only way to spread
    # it over several or to resume it.
    with pytest.raises(SystemExit):
        main([command, "--help"])
    out = capsys.readouterr().out
    for flag in ("--retries", "--checkpoint", "--resume", "--scan-workers"):
        assert flag not in out
    if command != "serve":  # serve's --workers sizes its request threads
        assert "--workers" not in out


def test_search_perf_line_shows_evictions_hides_workers(schema_files, capsys):
    """Sequential runs include evictions but no workers= suffix."""
    code = main(
        ["search", schema_files["a"], schema_files["b"], "--max-atoms", "1"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "cache evictions=" in out
    assert "workers=" not in out


def test_theorem13_holds(capsys):
    code = main(["theorem13", "--max-arity", "2", "--max-atoms", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "universe:" in out
    assert "[ok ]" in out
    assert "Theorem 13 prediction HOLDS on every pair" in out
    assert "perf: cache hits=" in out


def test_theorem13_profile_table(capsys):
    code = main(
        ["theorem13", "--max-arity", "1", "--max-atoms", "1", "--profile"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "per-phase timings" in out
    assert "theorem13" in out  # the root span appears as a phase row
    assert "TOTAL" in out


def test_theorem13_profile_self_times_sum_to_wall(capsys):
    """Acceptance: phase self-times tile the root span's wall time."""
    from repro import obs
    from repro.obs import tracing

    previous = tracing.set_enabled(True)
    tracing.start_trace()
    try:
        code = main(["theorem13", "--max-arity", "1", "--max-atoms", "1"])
        records = tracing.records()
    finally:
        tracing.set_enabled(previous)
        tracing.start_trace()
    assert code == 0
    summary = obs.fold(records)
    roots = [r for r in records if r.parent_id is None and r.proc == ""]
    root_total = sum(r.duration for r in roots)
    assert summary.total_self_s == pytest.approx(root_total, rel=1e-6)


def test_theorem13_trace_is_schema_valid(tmp_path, capsys):
    from repro.obs.events import validate_line

    trace = tmp_path / "trace.jsonl"
    code = main(
        [
            "theorem13",
            "--max-arity",
            "2",
            "--max-atoms",
            "1",
            "--trace",
            str(trace),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert f"trace written to {trace}" in out
    lines = trace.read_text().splitlines()
    assert lines
    for line in lines:
        assert validate_line(line) == [], line
    import json

    types = {json.loads(line)["type"] for line in lines}
    assert types == {"span_start", "span_end", "counter", "search_verdict"}


def test_search_metrics_json(schema_files, tmp_path, capsys):
    import json

    metrics_file = tmp_path / "metrics.json"
    code = main(
        [
            "search",
            schema_files["a"],
            schema_files["b"],
            "--max-atoms",
            "1",
            "--metrics-json",
            str(metrics_file),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert f"metrics written to {metrics_file}" in out
    payload = json.loads(metrics_file.read_text())
    assert payload["v"] == 2  # rides the event-schema version (fleet bump)
    assert any(name.startswith("cache.") for name in payload["metrics"])


def test_search_trace_flag(schema_files, tmp_path, capsys):
    from repro.obs.events import validate_line

    trace = tmp_path / "search.jsonl"
    code = main(
        [
            "search",
            schema_files["a"],
            schema_files["b"],
            "--max-atoms",
            "1",
            "--trace",
            str(trace),
        ]
    )
    assert code == 0
    lines = trace.read_text().splitlines()
    assert all(validate_line(line) == [] for line in lines)
    import json

    names = {
        json.loads(line)["name"]
        for line in lines
        if json.loads(line)["type"] == "span_start"
    }
    assert "search" in names and "search.dominance" in names


def test_python_dash_m_entry_point(schema_files):
    """`python -m repro` works as a subprocess (the __main__ shim)."""
    import subprocess
    import sys

    completed = subprocess.run(
        [sys.executable, "-m", "repro", "equiv", schema_files["a"], schema_files["b"]],
        capture_output=True,
        text=True,
    )
    assert completed.returncode == 0
    assert "equivalent" in completed.stdout


def test_closed_stdout_pipe_exits_141_without_traceback():
    """`repro ... | head` must not print a traceback or claim a verdict."""
    import os
    import subprocess
    import sys

    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the CLI writes a byte
    try:
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "theorem13",
             "--max-arity", "2", "--max-atoms", "1"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=300,
        )
    finally:
        os.close(write_end)
    assert completed.returncode == 141
    assert "Traceback" not in completed.stderr


def test_theorem13_prints_verdict_summary_line(capsys):
    code = main(["theorem13", "--max-arity", "1", "--max-atoms", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdicts: ok=1 timeout=0 unknown=0" in out


def test_theorem13_html_report_byte_matches_cli_verdict_line(tmp_path, capsys):
    report = tmp_path / "out.html"
    code = main(
        ["theorem13", "--max-arity", "2", "--max-atoms", "1",
         "--html-report", str(report)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert f"html report written to {report}" in out
    cli_line = next(
        line for line in out.splitlines() if line.startswith("verdicts: ")
    )
    html = report.read_text()
    # The acceptance contract: the dashboard embeds the CLI's verdict
    # census byte-for-byte.
    assert cli_line in html
    assert html.startswith("<!DOCTYPE html>")
    assert "<script" not in html


def test_theorem13_chrome_trace_is_loadable_and_lossless(tmp_path, capsys):
    import json

    from repro.obs.export import spans_from_chrome

    trace_path = tmp_path / "out.trace.json"
    code = main(
        ["theorem13", "--max-arity", "1", "--max-atoms", "1",
         "--export-chrome-trace", str(trace_path)]
    )
    assert code == 0
    assert f"chrome trace written to {trace_path}" in capsys.readouterr().out
    trace = json.loads(trace_path.read_text())
    assert trace["displayTimeUnit"] == "ms"
    spans = spans_from_chrome(trace)
    assert {record.name for record in spans} >= {"theorem13", "theorem13.scan"}
    phases = {e["ph"] for e in trace["traceEvents"]}
    assert "X" in phases and "M" in phases


def test_theorem13_profile_hz_reports_samples(tmp_path, capsys):
    code = main(
        ["theorem13", "--max-arity", "2", "--max-atoms", "1",
         "--profile-hz", "997"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "profiler:" in out and "at 997 Hz" in out


def test_theorem13_prometheus_out(tmp_path, capsys):
    prom = tmp_path / "metrics.prom"
    code = main(
        ["theorem13", "--max-arity", "1", "--max-atoms", "1",
         "--prometheus-out", str(prom)]
    )
    assert code == 0
    assert f"prometheus metrics written to {prom}" in capsys.readouterr().out
    text = prom.read_text()
    assert "# TYPE repro_" in text
    # Lossless: the dotted original name rides in the HELP line.
    assert "repro metric `" in text


def test_theorem13_progress_line_on_stderr(capsys):
    code = main(
        ["theorem13", "--max-arity", "2", "--max-atoms", "1", "--progress"]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "scan 6/6 100.0%" in captured.err
    assert "scan" not in captured.out.splitlines()[0]


def test_metrics_json_includes_incidents_and_pair_timeouts(schema_files, tmp_path, capsys):
    import json

    metrics_file = tmp_path / "metrics.json"
    code = main(
        [
            "search",
            schema_files["a"],
            schema_files["b"],
            "--max-atoms",
            "1",
            "--metrics-json",
            str(metrics_file),
        ]
    )
    assert code == 0
    payload = json.loads(metrics_file.read_text())
    # The enriched shape: schema version, metrics, incident census,
    # pair-timeout total, hypergraph statistics, scan-fabric census —
    # regression-pinned here.
    assert set(payload) == {
        "v", "metrics", "incidents", "pair_timeouts", "hypergraph", "fabric",
    }
    assert payload["incidents"] == {"total": 0, "by_type": {}}
    assert payload["pair_timeouts"] == 0
    assert any(name.startswith("cache.") for name in payload["metrics"])
    hyper = payload["hypergraph"]
    assert hyper["plans_compiled"] >= 1
    assert 0.0 <= hyper["acyclic_fraction"] <= 1.0
    assert hyper["mean_atoms"] >= 1.0
    assert payload["metrics"]["backend.dispatch.indexed"] >= 1


def test_metrics_json_counts_pair_timeouts(tmp_path, capsys):
    import json

    metrics_file = tmp_path / "metrics.json"
    code = main(
        ["theorem13", "--max-arity", "2", "--max-atoms", "2",
         "--pair-deadline", "0.0000001",
         "--metrics-json", str(metrics_file)]
    )
    out = capsys.readouterr().out
    assert code == 3  # undecided pairs → inconclusive exit
    payload = json.loads(metrics_file.read_text())
    assert payload["pair_timeouts"] > 0
    assert "unknown" in out
