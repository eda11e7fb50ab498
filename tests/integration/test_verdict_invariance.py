"""Verdict invariance: every execution path prints the same verdicts.

One fixed universe runs through every way the system can decide it.
The universe is the keyed single-relation schemas over type T of arity
at most 2, each followed by a shuffled copy, searched with one body atom
per view.  The paths are:

* the sequential scan and search;
* a 2-worker process pool under ``fork``;
* three in-process scan-fabric worker passes plus ``merge_journals``;
* the :class:`~repro.engine.Engine`;
* a live service (``/v1/dominance``).

Scan rows and search report lines must agree byte for byte.  The
exception is the 2-worker search's census line, because parallel chunks
keep scanning past the first witness.  Spawn-started workers are covered
by ``tests/obs/test_parallel_obs.py``.

Memo caches and indexed matching must not change a verdict.  Two engines
with different bounds must be able to share a process.  A zero deadline
must yield ``timeout`` on every path that takes a deadline; the fabric
takes none.  It must never yield a conclusive negative, and never
leave a result-cache entry behind.
"""

import json
import multiprocessing
import time
import urllib.request

import pytest

from repro.core.search import search_dominance, theorem13_scan
from repro.cq.homomorphism import set_indexing
from repro.engine import Engine, EngineConfig, search_report_lines, search_verdict
from repro.errors import InjectedFault
from repro.relational.catalog import format_schema
from repro.resilience import faults
from repro.scanfabric import merge_journals, run_fabric_worker
from repro.service import ServiceConfig, ServiceThread
from repro.utils import memo
from repro.workloads import enumerate_keyed_schemas
from repro.workloads.schema_gen import shuffled_copy

FORK = multiprocessing.get_context("fork")

# Indices into the universe: R0(k0*, a0) against its shuffled copy
# S0(x0, x1*) has a witness; R0(k0*, a0) against R0(k0*, k1*) has none.
# Neither pair is ended by the obstruction prefilter, so both reach the
# pair grid and its deadline polls.
WITNESS_PAIR = (1, 4)
NO_WITNESS_PAIR = (1, 2)
PAIRS = pytest.mark.parametrize(
    "pair", [WITNESS_PAIR, NO_WITNESS_PAIR], ids=["witness", "no-witness"]
)


@pytest.fixture(scope="module")
def universe():
    base = list(enumerate_keyed_schemas(["T"], 1, 2))
    return base + [shuffled_copy(s, seed=i) for i, s in enumerate(base)]


@pytest.fixture(scope="module")
def sequential_rows(universe):
    rows = theorem13_scan(universe, max_atoms=1)
    assert all(row.verdict == "ok" for row in rows)
    assert all(row.consistent_with_theorem13 for row in rows)
    return [tuple(row) for row in rows]


@pytest.fixture(scope="module")
def service():
    with ServiceThread(
        EngineConfig(max_atoms=1, request_workers=2),
        ServiceConfig(port=0, deadline=60.0),
    ) as thread:
        yield thread


def _request(port, path, body=None):
    url = f"http://127.0.0.1:{port}{path}"
    data = None if body is None else json.dumps(body).encode("utf-8")
    with urllib.request.urlopen(url, data=data, timeout=60) as response:
        assert response.status == 200
        return json.loads(response.read())


def _post_dominance(port, s1, s2, **extra):
    body = {"schema1": format_schema(s1), "schema2": format_schema(s2)}
    body.update(extra)
    return _request(port, "/v1/dominance", body)


def _cached_entries(port):
    return _request(port, "/healthz")["result_cache"]["entries"]


def _fabric_rows(root, universe):
    """Three worker passes over one fabric directory, then the merge.

    The first two passes die on acquiring shards 1 and 2, each leaving
    its lease unreleased.  Each later pass runs on a clock far enough
    ahead to steal that lease.
    """
    start = time.time()
    for owner, dies_at, ahead in (("w1", 1, 0.0), ("w2", 2, 100.0), ("w3", None, 200.0)):
        if dies_at is not None:
            faults.install([faults.rule("fabric.shard", "raise", keys=[dies_at])])
        try:
            run_fabric_worker(
                root, universe, max_atoms=1, shard_cells=2, owner=owner,
                ttl=5.0, clock=lambda ahead=ahead: time.time() - start + ahead,
            )
        except InjectedFault:
            assert dies_at is not None
        else:
            assert dies_at is None
        finally:
            faults.clear()
    return [tuple(row) for row in merge_journals(root).rows]


def test_scan_rows_identical_on_every_path(universe, sequential_rows, tmp_path):
    pooled = theorem13_scan(universe, max_atoms=1, n_workers=2, mp_context=FORK)
    assert [tuple(row) for row in pooled] == sequential_rows
    assert _fabric_rows(tmp_path, universe) == sequential_rows
    with Engine(EngineConfig(max_atoms=1)) as engine:
        rows = engine.theorem13_scan(universe)
    assert [tuple(row) for row in rows] == sequential_rows


@PAIRS
def test_search_report_lines_identical_on_every_path(universe, service, pair):
    s1, s2 = universe[pair[0]], universe[pair[1]]
    result = search_dominance(s1, s2, max_atoms=1)
    lines = search_report_lines(result, 1)
    assert result.found == (pair == WITNESS_PAIR)
    with Engine(EngineConfig(max_atoms=1)) as engine:
        assert engine.dominance_request(s1, s2)["lines"] == lines
    assert _post_dominance(service.port, s1, s2)["lines"] == lines
    pooled = search_dominance(s1, s2, max_atoms=1, n_workers=2, mp_context=FORK)
    assert search_verdict(pooled) == search_verdict(result) == "ok"
    assert search_report_lines(pooled, 1)[1:] == lines[1:]


def _search_lines(atoms):
    """Sequential search, reported as the CLI prints it."""
    return lambda s1, s2: search_report_lines(
        search_dominance(s1, s2, max_atoms=atoms), atoms
    )


def _verdicts(universe, scan, dominance):
    """A scan's rows, then both pairs' search report lines."""
    rows = [tuple(row) for row in scan(universe)]
    lines = [dominance(universe[i], universe[j]) for i, j in (WITNESS_PAIR, NO_WITNESS_PAIR)]
    return rows, lines


def test_memo_and_index_off_give_the_same_verdicts(universe):
    def scan(schemas):
        return theorem13_scan(schemas, max_atoms=1)

    expected = _verdicts(universe, scan, _search_lines(1))
    previous_memo = memo.set_enabled(False)
    previous_index = set_indexing(False)
    try:
        assert _verdicts(universe, scan, _search_lines(1)) == expected
    finally:
        set_indexing(previous_index)
        memo.set_enabled(previous_memo)


def test_two_engines_with_different_bounds_share_a_process(universe):
    standalone = {
        atoms: _verdicts(
            universe,
            lambda schemas: theorem13_scan(schemas, max_atoms=atoms),
            _search_lines(atoms),
        )
        for atoms in (1, 2)
    }
    with Engine(EngineConfig(max_atoms=1)) as one, Engine(EngineConfig(max_atoms=2)) as two:
        for atoms, engine in ((1, one), (2, two), (1, one), (2, two)):
            alternated = _verdicts(
                universe, engine.theorem13_scan,
                lambda s1, s2: engine.dominance_request(s1, s2)["lines"],
            )
            assert alternated == standalone[atoms]


def test_zero_deadline_times_out_and_caches_nothing(universe):
    scans = [
        theorem13_scan(universe, max_atoms=1, deadline=0),
        theorem13_scan(universe, max_atoms=1, n_workers=2, mp_context=FORK, deadline=0),
    ]
    with Engine(EngineConfig(max_atoms=1)) as engine:
        scans.append(engine.theorem13_scan(universe, deadline=0))
        for i, j in (WITNESS_PAIR, NO_WITNESS_PAIR):
            s1, s2 = universe[i], universe[j]
            searches = [
                search_dominance(s1, s2, max_atoms=1, deadline=0),
                search_dominance(
                    s1, s2, max_atoms=1, n_workers=2, mp_context=FORK, deadline=0
                ),
            ]
            assert [search_verdict(r) for r in searches] == ["timeout"] * 2
            assert engine.dominance_request(s1, s2, deadline=0)["verdict"] == "timeout"
        assert len(engine.result_cache) == 0
    for rows in scans:
        assert [row.verdict for row in rows] == ["timeout"] * len(rows)

    with ServiceThread(
        EngineConfig(max_atoms=1, request_workers=2),
        ServiceConfig(port=0, deadline=60.0),
    ) as service:
        for i, j in (WITNESS_PAIR, NO_WITNESS_PAIR):
            s1, s2 = universe[i], universe[j]
            payload = _post_dominance(service.port, s1, s2, deadline=0)
            assert payload["verdict"] == "timeout"
            assert _cached_entries(service.port) == 0
        # The timeout left no entry: the same question without a deadline
        # is answered afresh and conclusively.
        payload = _post_dominance(service.port, *(universe[k] for k in NO_WITNESS_PAIR))
        assert (payload["verdict"], payload["found"]) == ("ok", False)
        assert _cached_entries(service.port) == 1
