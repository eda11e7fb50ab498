"""The hard backstop drill: more timed-out requests than request threads.

``asyncio.wait_for`` over ``run_in_executor`` cannot cancel a pool
thread: a request the backstop answered with ``timeout`` keeps its
thread until the engine call returns.  This drill wedges every request
thread in a chase delay, queues one more request behind them, and checks
that the server still answers — ``/healthz`` at once (it runs on the
event loop), a fresh request as soon as a thread comes free.
"""

import json
import time
from concurrent.futures import ThreadPoolExecutor

from repro.engine import EngineConfig
from repro.resilience import faults, install, rule
from repro.service import ServiceConfig, ServiceThread
from repro.utils import memo

from .conftest import SCHEMA_A, SCHEMA_B, SCHEMA_C, Client

REQUEST_WORKERS = 2
DELAY = 2.0


def _timed(call):
    began = time.perf_counter()
    result = call()
    return result, time.perf_counter() - began


def test_backstop_timeouts_beyond_the_pool_leave_the_server_answering():
    memo.clear_all()  # cold caches, so every wedged request reaches a chase
    # Exactly one delay per request thread: the fresh request is not slowed.
    install([rule("chase.round", "delay", delay=DELAY, max_fires=REQUEST_WORKERS)])
    try:
        with ServiceThread(
            EngineConfig(max_atoms=1, request_workers=REQUEST_WORKERS),
            ServiceConfig(port=0, deadline=30.0, grace=0.05),
        ) as service:
            client = Client(service.port)
            wedging = {"schema1": SCHEMA_A, "schema2": SCHEMA_B, "deadline": 0.1}
            with ThreadPoolExecutor(REQUEST_WORKERS + 1) as senders:
                answers = list(
                    senders.map(
                        lambda _: _timed(
                            lambda: client.post("/v1/dominance", wedging)
                        ),
                        range(REQUEST_WORKERS + 1),
                    )
                )
            for (status, body), elapsed in answers:
                assert status == 200
                assert json.loads(body)["verdict"] == "timeout"
                assert elapsed < 1.0

            # Both request threads are still asleep in the chase.
            (status, body), elapsed = _timed(lambda: client.get("/healthz"))
            assert status == 200
            assert elapsed < 1.0
            assert json.loads(body)["result_cache"]["entries"] == 0

            fresh = {"schema1": SCHEMA_A, "schema2": SCHEMA_C}
            (status, body), elapsed = _timed(
                lambda: client.post("/v1/dominance", fresh)
            )
            assert status == 200
            assert json.loads(body)["verdict"] == "ok"
            assert elapsed < DELAY + 5.0
    finally:
        faults.clear()
