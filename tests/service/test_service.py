"""Integration tests for the equivalence service (real sockets, live server)."""

import json
import socket
from concurrent.futures import ThreadPoolExecutor

from .conftest import SCHEMA_A, SCHEMA_B, SCHEMA_C


def _metric(client, name: str) -> float:
    status, body = client.get("/metrics")
    assert status == 200
    for line in body.decode().splitlines():
        if line.startswith(name + " "):
            return float(line.split()[1])
    return 0.0


def test_healthz_reports_config_and_cache(client):
    status, body = client.get("/healthz")
    assert status == 200
    payload = json.loads(body)
    assert payload["status"] == "ok"
    assert payload["engine"]["max_atoms"] == 1
    assert payload["deadline"] == 60.0
    assert set(payload["result_cache"]) == {"entries", "hits", "misses"}


def test_metrics_exposes_prometheus_text(client):
    status, body = client.get("/metrics")
    assert status == 200
    text = body.decode()
    assert "# TYPE" in text
    # Exposed series names are unique (the collision fix, end to end).
    exposed = [
        line.split()[0]
        for line in text.splitlines()
        if line and not line.startswith("#")
    ]
    assert len(exposed) == len(set(exposed))


def test_cache_miss_counts_refuter_classes_and_round_trips(client):
    # A cache miss runs the search, whose grid refuter counts the α image
    # classes it formed and the (class, β) round trips it ran.
    request = {"schema1": "G1(a*: T, b: U)", "schema2": "H1(x*: T, y: U)"}
    classes = _metric(client, "repro_search_alpha_classes")
    round_trips = _metric(client, "repro_search_round_trip_checks")
    status, body = client.post("/v1/dominance", request)
    assert status == 200
    assert json.loads(body)["found"] is True
    assert _metric(client, "repro_search_alpha_classes") > classes
    assert _metric(client, "repro_search_round_trip_checks") > round_trips


def test_equivalence_positive_and_negative(client):
    status, body = client.post(
        "/v1/equivalence", {"schema1": SCHEMA_A, "schema2": SCHEMA_B}
    )
    assert status == 200
    payload = json.loads(body)
    assert payload["verdict"] == "ok"
    assert payload["equivalent"] is True
    status, body = client.post(
        "/v1/equivalence", {"schema1": SCHEMA_A, "schema2": SCHEMA_C}
    )
    assert json.loads(body)["equivalent"] is False


def test_second_identical_request_hits_cache_byte_identical(client):
    request = {"schema1": "R(a*: K, b: V)", "schema2": "S(x*: K, y: V)"}
    misses_before = _metric(client, "repro_engine_cache_misses")
    status1, body1 = client.post("/v1/dominance", request)
    hits_before = _metric(client, "repro_engine_cache_hits")
    status2, body2 = client.post("/v1/dominance", request)
    assert status1 == status2 == 200
    assert body1 == body2  # byte-identical payload from the warm cache
    assert _metric(client, "repro_engine_cache_hits") == hits_before + 1
    # The second request did not miss again: one miss total for this key.
    assert _metric(client, "repro_engine_cache_misses") == misses_before + 1


def test_concurrent_clients_mixed_hit_miss(client, service):
    """N parallel requests over two distinct questions, warm and cold."""
    pair_ok = {"schema1": "C1(a*: T, b: U)", "schema2": "D1(x*: T, y: U)"}
    pair_no = {"schema1": "C2(a*: T, b: U, z: U)", "schema2": "D2(x*: T, y: U)"}
    client.post("/v1/dominance", pair_ok)  # warm one of the two

    def ask(i):
        return client.post("/v1/dominance", pair_ok if i % 2 else pair_no)

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(ask, range(12)))
    assert all(status == 200 for status, _ in results)
    ok_bodies = {body for i, (_, body) in enumerate(results) if i % 2}
    no_bodies = {body for i, (_, body) in enumerate(results) if not i % 2}
    # Hits and misses of the same question are byte-identical.
    assert len(ok_bodies) == 1
    assert len(no_bodies) == 1
    assert json.loads(ok_bodies.pop())["found"] is True
    payload = json.loads(no_bodies.pop())
    assert payload["found"] is False
    assert payload["verdict"] == "ok"


def test_verdict_lines_byte_identical_to_cli(client, tmp_path):
    """The payload's lines are exactly the CLI's deterministic output."""
    import contextlib
    import io

    from repro.cli import main

    status, body = client.post(
        "/v1/dominance", {"schema1": SCHEMA_A, "schema2": SCHEMA_B}
    )
    assert status == 200
    payload = json.loads(body)

    file_a = tmp_path / "a.schema"
    file_b = tmp_path / "b.schema"
    file_a.write_text(SCHEMA_A + "\n")
    file_b.write_text(SCHEMA_B + "\n")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["search", str(file_a), str(file_b), "--max-atoms", "1"])
    assert code == 0
    cli_lines = [
        line for line in out.getvalue().splitlines()
        if not line.startswith("perf:")
    ]
    assert payload["lines"] == cli_lines


def test_deadline_expiry_returns_structured_timeout(client):
    """deadline=0 yields a clean timeout verdict, not a hung connection."""
    request = {
        "schema1": "T1(a*: T, b: U)",
        "schema2": "T2(x*: T, y: U, z: T)",
        "deadline": 0.0,
    }
    status, body = client.post("/v1/dominance", request)
    assert status == 200
    payload = json.loads(body)
    assert payload["verdict"] == "timeout"
    assert payload["found"] is False
    assert "search inconclusive" in payload["lines"][-1]
    # The timeout was never cached: the real answer is still computable.
    del request["deadline"]
    status, body = client.post("/v1/dominance", request)
    assert json.loads(body)["verdict"] == "ok"


def test_mapping_check_valid_and_error(client):
    status, body = client.post(
        "/v1/mapping-check",
        {
            "source": SCHEMA_A,
            "target": SCHEMA_B,
            "mapping": "person(X, Y) :- emp(X, Y).\n",
        },
    )
    assert status == 200
    payload = json.loads(body)
    assert payload["valid"] is True
    assert payload["per_relation"] == {"person": True}
    # A head naming a non-target relation is a 400 naming the head.
    status, body = client.post(
        "/v1/mapping-check",
        {
            "source": SCHEMA_A,
            "target": SCHEMA_B,
            "mapping": "nosuch(X) :- emp(X, Y).\n",
        },
    )
    assert status == 400
    assert "'nosuch'" in json.loads(body)["error"]


def test_include_ddl_echo(client):
    status, body = client.post(
        "/v1/equivalence",
        {"schema1": SCHEMA_A, "schema2": SCHEMA_B, "include_ddl": True},
    )
    assert status == 200
    payload = json.loads(body)
    assert "CREATE TABLE" in payload["ddl"]["schema1"]
    assert "CREATE TABLE" in payload["ddl"]["schema2"]


def test_error_statuses(client):
    assert client.get("/nope")[0] == 404
    assert client.get("/v1/equivalence")[0] == 405
    status, body = client.post("/v1/equivalence", {"schema1": "not a schema!!"})
    assert status == 400
    assert "error" in json.loads(body)
    status, _ = client.post("/v1/equivalence", {"schema1": SCHEMA_A})
    assert status == 400  # missing schema2


def test_sse_events_stream(client, service):
    """A /v1/events subscriber sees request/done events for a POST."""
    conn = socket.create_connection(("127.0.0.1", service.port), timeout=30)
    try:
        conn.sendall(b"GET /v1/events HTTP/1.1\r\nHost: t\r\n\r\n")
        buffered = b""
        while b"\r\n\r\n" not in buffered:  # response headers
            buffered += conn.recv(4096)
        assert b"text/event-stream" in buffered
        # Trigger activity while subscribed (fresh pair: a real run).
        status, _ = client.post(
            "/v1/dominance",
            {"schema1": "E1(a*: T)", "schema2": "E2(x*: T)"},
        )
        assert status == 200
        while b"event: done" not in buffered:
            chunk = conn.recv(4096)
            assert chunk, "event stream closed before done event"
            buffered += chunk
        assert b'"kind":"dominance"' in buffered
    finally:
        conn.close()
